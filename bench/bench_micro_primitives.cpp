// Microbenchmarks (google-benchmark) of the hot primitives: the crypto the
// tunnels run on, the blinding codec, Tor cell handling and the simulator's
// event loop. Useful for spotting regressions that would silently stretch
// the figure benches' wall time.
#include <benchmark/benchmark.h>

#include "crypto/aes.h"
#include "crypto/blinding.h"
#include "crypto/entropy.h"
#include "crypto/sha256.h"
#include "core/blinded_stream.h"
#include "sim/simulator.h"
#include "tor/cell.h"

namespace {

sc::Bytes makeData(std::size_t n) {
  sc::Bytes data(n);
  std::uint32_t x = 0x12345678;
  for (auto& b : data) {
    x = x * 1664525 + 1013904223;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  return data;
}

void BM_Sha256(benchmark::State& state) {
  const sc::Bytes data = makeData(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(sc::crypto::sha256(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_Aes256CfbEncrypt(benchmark::State& state) {
  const sc::Bytes key(32, 0x42), iv(16, 0x24);
  const sc::Bytes data = makeData(static_cast<std::size_t>(state.range(0)));
  sc::crypto::AesCfbStream stream(key, iv);
  for (auto _ : state) benchmark::DoNotOptimize(stream.encrypt(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Aes256CfbEncrypt)->Arg(64)->Arg(1400)->Arg(16384);

void BM_BlindingByteMap(benchmark::State& state) {
  sc::crypto::BlindingCodec codec(sc::toBytes("secret"));
  const sc::Bytes data = makeData(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(codec.blind(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BlindingByteMap)->Arg(1400)->Arg(16384);

void BM_BlindingPrintable(benchmark::State& state) {
  sc::crypto::BlindingCodec codec(sc::toBytes("secret"), 0,
                                  sc::crypto::BlindingMode::kPrintable);
  const sc::Bytes data = makeData(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(codec.blind(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BlindingPrintable)->Arg(1400)->Arg(16384);

void BM_BlindingRotate(benchmark::State& state) {
  sc::crypto::BlindingCodec codec(sc::toBytes("secret"));
  std::uint32_t epoch = 0;
  for (auto _ : state) codec.rotate(++epoch);
}
BENCHMARK(BM_BlindingRotate);

void BM_ShannonEntropy(benchmark::State& state) {
  const sc::Bytes data = makeData(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(sc::crypto::shannonEntropy(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ShannonEntropy)->Arg(256)->Arg(1400);

void BM_TorCellRoundTrip(benchmark::State& state) {
  sc::tor::RelayPayload relay;
  relay.cmd = sc::tor::RelayCommand::kData;
  relay.stream_id = 7;
  relay.data = makeData(sc::tor::kRelayDataMax);
  sc::tor::CellReader reader;
  for (auto _ : state) {
    sc::tor::Cell cell;
    cell.circ_id = 1;
    cell.cmd = sc::tor::CellCommand::kRelay;
    cell.payload = sc::tor::encodeRelayPayload(relay);
    const sc::Bytes wire = sc::tor::encodeCell(cell);
    auto cells = reader.feed(wire);
    benchmark::DoNotOptimize(cells);
  }
}
BENCHMARK(BM_TorCellRoundTrip);

void BM_SimulatorEventChurn(benchmark::State& state) {
  for (auto _ : state) {
    sc::sim::Simulator sim(1);
    int remaining = 10000;
    std::function<void()> tick = [&] {
      if (--remaining > 0) sim.schedule(10, tick);
    };
    sim.schedule(1, tick);
    sim.run();
    benchmark::DoNotOptimize(remaining);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatorEventChurn);

}  // namespace
