#include "reference.h"

#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {
namespace {

// The simulator's hot mix in miniature: a timed event queue of
// std::function callbacks; each event allocates and fills a packet-sized
// buffer, runs a table cipher over part of it, updates a flow table and
// calls two of many distinct handlers on it. Without the handlers the pass
// tracked the host's slowdown of fig5_campaign markedly worse: much of that
// slowdown hits the instruction front end.
constexpr std::size_t kPoolBuffers = 2048;  // ~3 MB of source payloads
constexpr std::size_t kPacketBytes = 1500;
constexpr std::size_t kCipherBytes = 256;
constexpr int kFlows = 256;
constexpr int kEvents = 30000;

struct XorShift {
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  std::uint64_t next() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }
};

// Branchy handlers with distinct code, so that a pass also runs through
// far more instructions than fit the core's front-end caches, as the
// simulator's many protocol layers do.
constexpr std::size_t kHandlers = 512;

template <std::size_t N>
[[gnu::noinline]] std::uint64_t handler(const std::uint8_t* p,
                                        std::uint64_t h) {
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull ^ (N * 0x2545F491ull);
  for (std::size_t i = 0; i < 24; ++i) {
    const std::uint8_t b = p[(i * (N % 7 + 1) + N) % kPacketBytes];
    switch ((b + N) & 3) {
      case 0: h = (h ^ b) * kMul; break;
      case 1:
        h += (static_cast<std::uint64_t>(b) << (N % 29)) ^ (h >> 11);
        break;
      case 2: h = (h << 7 | h >> 57) + N; break;
      default: h ^= kMul >> (b & 31); break;
    }
  }
  return h;
}

using Handler = std::uint64_t (*)(const std::uint8_t*, std::uint64_t);

template <std::size_t... Ns>
constexpr std::array<Handler, sizeof...(Ns)> makeHandlers(
    std::index_sequence<Ns...>) {
  return {&handler<Ns>...};
}

constexpr auto kHandlerTable =
    makeHandlers(std::make_index_sequence<kHandlers>{});

struct Event {
  std::uint64_t at;
  std::uint64_t seq;
  std::function<void()> fn;
};

struct Later {
  bool operator()(const Event& a, const Event& b) const {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }
};

}  // namespace

struct Reference::State {
  std::vector<std::vector<std::uint8_t>> pool;
  std::array<std::uint8_t, 256> sbox{};
  std::uint64_t expected = 0;
  bool have_expected = false;
};

Reference::Reference() : state_(std::make_unique<State>()) {
  XorShift rng;
  state_->pool.assign(kPoolBuffers, std::vector<std::uint8_t>(kPacketBytes));
  for (auto& buffer : state_->pool)
    for (auto& byte : buffer) byte = static_cast<std::uint8_t>(rng.next());
  for (std::size_t i = 0; i < state_->sbox.size(); ++i)
    state_->sbox[i] = static_cast<std::uint8_t>(i * 167 + 13);
}

Reference::~Reference() = default;

double Reference::pass() {
  const auto start = std::chrono::steady_clock::now();
  XorShift rng;
  std::priority_queue<Event, std::vector<Event>, Later> queue;
  std::unordered_map<std::uint64_t, std::uint64_t> flows;
  std::uint64_t now = 0;
  std::uint64_t seq = 0;
  std::uint64_t sum = 0;
  int fired = 0;

  std::function<void(int)> schedule = [&](int flow) {
    queue.push(Event{now + (rng.next() & 1023), seq++, [&, flow] {
                       const auto& src = state_->pool[rng.next() % kPoolBuffers];
                       std::vector<std::uint8_t> packet(kPacketBytes);
                       std::memcpy(packet.data(), src.data(), kPacketBytes);
                       std::uint8_t chain = static_cast<std::uint8_t>(flow);
                       for (std::size_t i = 0; i < kCipherBytes; ++i)
                         chain = packet[i] = state_->sbox[packet[i] ^ chain];
                       std::uint64_t& bytes = flows[rng.next() & 0xFFFF];
                       bytes += chain;
                       sum += bytes ^ packet[kPacketBytes - 1];
                       for (int k = 0; k < 2; ++k)
                         sum = kHandlerTable[rng.next() % kHandlers](
                             packet.data(), sum);
                       if (++fired < kEvents) schedule(flow);
                     }});
  };
  for (int flow = 0; flow < kFlows; ++flow) schedule(flow);
  while (!queue.empty()) {
    Event ev = queue.top();
    queue.pop();
    now = ev.at;
    ev.fn();
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  sum += flows.size();
  if (!state_->have_expected) {
    state_->expected = sum;
    state_->have_expected = true;
  }
  ok_ = ok_ && sum == state_->expected;
  return seconds;
}

}  // namespace perfbench
