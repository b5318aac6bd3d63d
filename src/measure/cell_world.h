// One measurement world: the parts every self-contained measurement cell
// (fleet, chaos, population, serverless) builds around the deployment under
// test, written once (DESIGN.md "One measurement world").
//
//   CellWorld            — Simulator, Hub, Network and the calibrated World;
//                          the US resolver "us-dns"; "scholar-origin" serving
//                          a 2048-byte page; the calibrated GFW on the border
//                          blocking google.com and the origin IP; the ICP
//                          registry its leniency consults.
//   FleetDeployment      — ScholarCloud as a fleet: the ICP-approved
//                          "sc-domestic" proxy whose fleet
//                          spawns RemoteProxy endpoints "<prefix>-remote-<seq>"
//                          on fresh US IPs, with blocklist churn fed to it.
//   ServerlessDeployment — the unregistered "fn-gateway", its
//                          CostModel, and a fleet of fronted endpoints fed by
//                          the FunctionProvider spawning "fn-<seq>". The
//                          Testbed builds the same one lazily.
//   FetchLoop            — raw-GET users hammering a proxy.
//
// Each part is built in declaration order and torn down in reverse, so a
// cell declares its CellWorld first, then its deployment, then its users.
// Node names reach the metrics JSONL (net.link.<name>-access.*), so they are
// part of every cell's output.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "chaos/recovery.h"
#include "core/deployment.h"
#include "core/domestic_proxy.h"
#include "core/remote_proxy.h"
#include "dns/server.h"
#include "fleet/fleet.h"
#include "gfw/gfw.h"
#include "http/server.h"
#include "net/topology.h"
#include "obs/hub.h"
#include "regulation/icp_registry.h"
#include "serverless/cost.h"
#include "serverless/provider.h"
#include "serverless/runtime.h"
#include "sim/simulator.h"

namespace sc::measure {

struct CellWorld {
  // `tracing` enables the trace ring with `trace_capacity` slots.
  CellWorld(std::uint64_t seed, bool tracing,
            std::size_t trace_capacity = obs::Tracer::kDefaultCap);
  CellWorld(const CellWorld&) = delete;
  CellWorld& operator=(const CellWorld&) = delete;

  net::Ipv4 usDnsIp() { return dns_stack.node().primaryIp(); }

  sim::Simulator sim;
  // Before network: every layer resolves its metric handles at construction.
  obs::Hub hub;
  net::Network network;
  net::World world;
  transport::HostStack dns_stack;
  dns::DnsServer us_dns;
  transport::HostStack origin_stack;
  http::HttpServer origin;
  regulation::IcpRegistry registry;
  gfw::Gfw gfw;
};

class FleetDeployment {
 public:
  // `options` sizes and shapes the fleet; the tunnel secret is set here.
  FleetDeployment(CellWorld& cw, const std::string& prefix,
                  fleet::FleetOptions options);
  FleetDeployment(const FleetDeployment&) = delete;
  FleetDeployment& operator=(const FleetDeployment&) = delete;

 private:
  // Declared before the proxy (and thus the deployment owning the fleet) so
  // the fleet's destructor still sees live remote stacks while closing
  // tunnels.
  std::vector<std::unique_ptr<transport::HostStack>> remote_stacks_;
  std::vector<std::unique_ptr<core::RemoteProxy>> remote_proxies_;
  transport::HostStack domestic_stack_;

 public:
  core::DomesticProxy proxy;
  core::Deployment deployment;
  fleet::Fleet& fleet;

 private:
  fleet::Fleet& approveAndSpawn(CellWorld& cw, const std::string& prefix,
                                fleet::FleetOptions options);
};

class ServerlessDeployment {
 public:
  ServerlessDeployment(net::World& world, gfw::Gfw& gfw, net::Ipv4 us_dns_ip,
                       const serverless::ProviderOptions& provider_options,
                       crypto::BlindingMode blinding_mode);
  ServerlessDeployment(const ServerlessDeployment&) = delete;
  ServerlessDeployment& operator=(const ServerlessDeployment&) = delete;

 private:
  // Declared first so they go last: the fleet severs its tunnels while the
  // function hosts and the gateway stack are still alive.
  std::vector<std::unique_ptr<transport::HostStack>> fn_stacks_;
  std::vector<std::unique_ptr<serverless::FunctionRuntime>> fn_runtimes_;
  transport::HostStack gateway_stack_;

 public:
  core::DomesticProxy gateway;
  serverless::CostModel cost;
  serverless::FunctionProvider provider;
  fleet::Fleet fleet;
};

// Raw-GET users: campus hosts that each fetch the cell's page through a
// proxy, one attempt at a time, with an absolute-form GET on a fresh
// connection. The PAC-configured browser path is exercised end to end by the
// Testbed campaigns; this load generator stays minimal so a cell measures
// the deployment. `on_attempt` runs as a user starts an attempt; `on_done`
// records its outcome (`started` is when it began) and returns the delay to
// that user's next attempt.
class FetchLoop {
 public:
  using OnDone =
      std::function<sim::Time(std::size_t user, bool ok, sim::Time started)>;

  FetchLoop(CellWorld& cw, net::Endpoint proxy, sim::Time timeout,
            std::function<void()> on_attempt, OnDone on_done);
  FetchLoop(const FetchLoop&) = delete;
  FetchLoop& operator=(const FetchLoop&) = delete;

  // Adds campus host `name` as the next user; its first attempt starts
  // `first` from now.
  void addUser(const std::string& name, sim::Time first);

 private:
  void attempt(std::size_t user);

  CellWorld& cw_;
  net::Endpoint proxy_;
  sim::Time timeout_;
  std::function<void()> on_attempt_;
  OnDone on_done_;
  std::vector<std::unique_ptr<transport::HostStack>> stacks_;
};

// The RecoveryTracker aggregates a chaos-style cell reports.
struct RecoveryReadout {
  int faults = 0;
  int impacted = 0;
  int recovered = 0;
  int unrecovered = 0;  // impacted, never saw a success again
  double mean_detect_s = 0.0;
  double mean_recover_s = 0.0;
  double max_recover_s = 0.0;
  std::uint64_t requests_lost = 0;
  std::vector<chaos::FaultRecord> records;

  void readFrom(const chaos::RecoveryTracker& tracker);
};

// The one place a cell reports an access attempt's fate to the trace, so the
// RecoveryTracker sees the same event grammar in every world shape.
void traceAccess(sim::Simulator& sim, bool ok, sim::Time latency,
                 std::uint32_t tag);

double successRatio(int successes, int attempts);

// Captures a Hub's JSONL exports before its world dies: the metrics always,
// the trace and the spans into the strings given (null skips one).
void captureJsonl(obs::Hub& hub, std::string& metrics,
                  std::string* trace = nullptr, std::string* spans = nullptr);

}  // namespace sc::measure
