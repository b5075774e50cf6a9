// End-to-end benchmark harness: runs one named workload from
// ScenarioOptions to a printed report, once per network drawn from --seed,
// and prints one raw JSON result line ("PERFBENCH_RAW {...}") with every
// iteration's timings and output fingerprint, a cross-executor reference
// fingerprint, and — in a traced run — the per-layer metrics. run.py
// builds this binary, checks the fingerprints and condenses the line into
// the benchmark's result.
//
//   perfbench_e2e --workload=fig06-hprof --seed=2004 --seconds=20 --trace=0
//
// Workloads (why each exists is recorded in BENCHMARK.json):
//   fig06-hprof    single-AS BRITE, ScaLapack, HPROF, sequential executor
//   fig10-gridnpb  multi-AS maBrite, GridNPB, HPROF, threaded channel sync
//   hybrid-flaps   BRITE + fluid background flows + link faults
//   online-live    a live app thread ping-pongs through VSocket/Agent
//
// Iteration i simulates the network of seed `seed + i * kSeedStride`
// (iteration 0 is --seed's own). One network's quirks move its timings by
// tens of percent — the profiling run's window count, for one, follows the
// naive mapping's lookahead, which ranges 25-165 us over BRITE seeds — so a
// run reports medians over several networks. The iteration count comes
// from --seconds and the workload's nominal iteration time, so a run does
// the same work on a fast or a slow machine.
//
// Untraced iterations give the end-to-end numbers. With --trace=1 every
// network runs twice, untraced then traced; traced iterations attach an
// obs::Registry, a window-timestamp barrier hook and the span recorder
// (trace.hpp), and the median traced/untraced wall-time excess is reported
// as trace.overhead_share.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fault/injector.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "online/agent.hpp"
#include "online/vsocket.hpp"
#include "sim/report.hpp"
#include "sim/scenario.hpp"
#include "trace.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace massf;

constexpr std::uint64_t kSeedStride = 1000003;

struct Config {
  std::string workload;
  std::uint64_t seed = 2004;
  double seconds = 20;
  bool trace = false;
  bool smoke = false;
  bool cross_check_all = false;
  std::string trace_out;
};

struct Workload {
  ScenarioOptions opts;  ///< seed set per iteration
  bool faults = false;
  bool online = false;
  std::int32_t rounds = 0;            ///< live round trips per session
  std::uint32_t message_bytes = 0;    ///< live message size
  std::int32_t pairs = 0;             ///< host pairs the rounds rotate over
  std::int32_t reference_threads = 0;  ///< executor of the cross-check run
  /// Wall seconds of one iteration on a 4-CPU x86 host (RelWithDebInfo);
  /// only sets how many networks a run of --seconds covers.
  double nominal_s = 1;
};

std::int32_t host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<std::int32_t>(hc);
}

/// Peak resident set of this process image. getrusage's ru_maxrss is not
/// used: Linux carries it across exec, so it would report the launching
/// process's peak whenever that is larger.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in (0, 100]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double wall_ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---- workloads --------------------------------------------------------------

/// The reduced-scale figure options (the figure benches' experiment
/// options), with every run-control knob an environment variable could
/// flip pinned, so the benchmark measures the same configuration anywhere.
ScenarioOptions figure_options(bool multi_as, AppKind app, bool smoke) {
  ScenarioOptions o;
  o.multi_as = multi_as;
  o.num_routers = 2000;
  o.num_hosts = 1000;
  o.num_as = 20;
  o.num_clients = 400;
  o.num_servers = 100;
  o.num_engines = 24;
  o.end_time = seconds(8);
  o.profile_end_time = seconds(3);
  o.app = app;
  o.num_app_hosts = app == AppKind::kGridNpb ? 18 : 16;
  o.http.think_time_mean_s = 0.4;
  o.sync = SyncMode::kChannel;
  o.guard = guard::GuardOptions{};
  if (smoke) {
    o.num_routers = 200;
    o.num_hosts = 200;
    o.num_as = 5;
    o.num_clients = 40;
    o.num_servers = 10;
    o.num_engines = 6;
    o.end_time = seconds(2);
    o.profile_end_time = seconds(1);
  }
  return o;
}

bool make_workload(const Config& cfg, Workload* w) {
  if (cfg.workload == "fig06-hprof") {
    w->opts = figure_options(false, AppKind::kScaLapack, cfg.smoke);
    w->reference_threads = 2;
    w->nominal_s = 3.0;
  } else if (cfg.workload == "fig10-gridnpb") {
    w->opts = figure_options(true, AppKind::kGridNpb, cfg.smoke);
    w->opts.executor_threads = std::min(4, host_cpus());
    w->reference_threads = 0;
    w->nominal_s = 1.5;
  } else if (cfg.workload == "hybrid-flaps") {
    ScenarioOptions& o = w->opts;
    o = figure_options(false, AppKind::kNone, cfg.smoke);
    o.num_clients = cfg.smoke ? 20 : 200;
    o.http.think_time_mean_s = 5.0;
    o.num_bg_sources = cfg.smoke ? 200 : 1500;
    o.num_hosts = o.num_clients + o.num_servers + o.num_bg_sources;
    o.background.think_time_mean_s = 5.0;
    o.background.flow_mean_bytes = 1e6;
    o.netsim.link_model.kind = LinkModelKind::kHybrid;
    o.netsim.link_model.fluid_recompute_every = 8;
    o.netsim.link_model.fluid_flow_rate_cap_bps = 1e7;
    w->faults = true;
    w->reference_threads = 2;
    w->nominal_s = 5.0;
  } else if (cfg.workload == "online-live") {
    w->opts = figure_options(false, AppKind::kNone, cfg.smoke);
    w->online = true;
    w->rounds = cfg.smoke ? 6 : 100;
    w->message_bytes = 10 * 1000;
    w->pairs = cfg.smoke ? 2 : 16;
    w->nominal_s = 4.0;
  } else {
    return false;
  }
  return true;
}

/// Faults for hybrid-flaps on router-router links next to the busiest
/// endpoints (server attachment routers), all over by 55% of the horizon
/// so the forwarding plane is back to all-up before the run ends: a flap
/// train, a link down/up pair and a loss burst.
FaultSchedule make_faults(const Scenario& sc) {
  const Network& net = sc.network();
  std::vector<LinkId> links;
  for (NodeId server : sc.server_hosts()) {
    const NodeId r = net.nodes[static_cast<std::size_t>(server)].attach_router;
    for (const Network::Incidence& inc : net.incident(r)) {
      if (!net.is_router(inc.peer)) continue;
      if (std::find(links.begin(), links.end(), inc.link) == links.end()) {
        links.push_back(inc.link);
      }
      break;
    }
    if (links.size() == 3) break;
  }
  MASSF_CHECK(links.size() == 3);
  const double t = to_seconds(sc.options().end_time);
  FaultSchedule f;
  f.flap_train(from_seconds(0.2 * t), links[0], 3, from_seconds(0.1 * t),
               from_seconds(0.04 * t));
  f.link_down(from_seconds(0.3 * t), links[1]);
  f.link_up(from_seconds(0.5 * t), links[1]);
  f.loss_burst(from_seconds(0.35 * t), links[2], from_seconds(0.2 * t), 0.05);
  return f;
}

// ---- fingerprints -------------------------------------------------------------

/// The deterministic output of one batch run.
std::string fingerprint_json(const ExperimentResult& r) {
  const NetSim::Counters& c = r.counters;
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\"events\": %llu, \"windows\": %llu, \"cross_events\": %llu, "
      "\"merge_batches\": %llu, \"forwarded\": %llu, \"delivered\": %llu, "
      "\"acks\": %llu, \"dropped_queue\": %llu, \"dropped_no_route\": %llu, "
      "\"dropped_link_down\": %llu, \"dropped_node_down\": %llu, "
      "\"dropped_loss\": %llu, \"app_timers_dropped\": %llu, "
      "\"retransmits\": %llu, \"flows_started\": %llu, "
      "\"flows_completed\": %llu, \"flows_failed\": %llu, "
      "\"udp_delivered\": %llu, \"modeled_T_s\": %.17g, \"edge_cut\": %lld}",
      static_cast<unsigned long long>(r.stats.total_events),
      static_cast<unsigned long long>(r.stats.num_windows),
      static_cast<unsigned long long>(r.stats.cross_lp_events),
      static_cast<unsigned long long>(r.stats.merge_batches),
      static_cast<unsigned long long>(c.forwarded),
      static_cast<unsigned long long>(c.delivered),
      static_cast<unsigned long long>(c.acks),
      static_cast<unsigned long long>(c.dropped_queue),
      static_cast<unsigned long long>(c.dropped_no_route),
      static_cast<unsigned long long>(c.dropped_link_down),
      static_cast<unsigned long long>(c.dropped_node_down),
      static_cast<unsigned long long>(c.dropped_loss),
      static_cast<unsigned long long>(c.app_timers_dropped),
      static_cast<unsigned long long>(c.retransmits),
      static_cast<unsigned long long>(c.flows_started),
      static_cast<unsigned long long>(c.flows_completed),
      static_cast<unsigned long long>(c.flows_failed),
      static_cast<unsigned long long>(c.udp_delivered),
      r.metrics.simulation_time_s, static_cast<long long>(r.mapping.edge_cut));
  return buf;
}

// ---- one iteration ------------------------------------------------------------

using Layers = std::map<std::string, double>;

/// What an iteration observed beyond the end-to-end timings (the registry
/// and window clock only when traced).
struct LayerObservation {
  std::unique_ptr<obs::Registry> registry;
  std::vector<std::int64_t> barrier_ns;  ///< one timestamp per window boundary
  double build_s = 0, profile_s = 0, map_s = 0;
  Mapping mapping;
  RunStats stats;
  SimulationMetrics metrics;
  std::uint64_t faults_injected = 0;
  std::vector<double> ospf_reconverge_s;
  std::vector<double> rtt_virtual_ms;
  std::uint64_t live_retries = 0, live_failed = 0;
};

struct Iteration {
  std::uint64_t seed = 0;
  bool traced = false;
  double wall_s = 0, setup_s = 0, run_s = 0, vtime_s = 0, modeled_T_s = 0;
  std::string fingerprint;            ///< batch only
  std::string reference_fingerprint;  ///< batch, when cross-checked
  // online only
  std::int32_t rounds_attempted = 0, rounds_failed = 0, violations = 0;
  std::vector<double> rtt_wall_ms;
  Layers layers;  ///< traced only
};

/// Installs the window-timestamp hook (traced iterations only).
void add_window_clock(Engine& engine, std::vector<std::int64_t>* stamps) {
  engine.hooks().barrier.push_back([stamps](Engine&, SimTime) {
    stamps->push_back(std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now().time_since_epoch())
                          .count());
  });
}

/// Builds the scenario and its HPROF mapping: the set-up phase shared by
/// every workload.
std::unique_ptr<Scenario> set_up(const ScenarioOptions& opts, Tracer& tr,
                                 LayerObservation* layer, Mapping* mapping) {
  const auto t0 = Clock::now();
  std::unique_ptr<Scenario> sc;
  {
    ScopedSpan s(tr, "sim.build");
    sc = std::make_unique<Scenario>(opts);
  }
  const auto t1 = Clock::now();
  {
    ScopedSpan s(tr, "lb.profile");
    sc->profile();
  }
  const auto t2 = Clock::now();
  {
    ScopedSpan s(tr, "lb.map");
    *mapping = sc->mapping_for(MappingKind::kHProf);
  }
  const auto t3 = Clock::now();
  layer->build_s = seconds_between(t0, t1);
  layer->profile_s = seconds_between(t1, t2);
  layer->map_s = seconds_between(t2, t3);
  return sc;
}

/// Runs the measured batch simulation on a built scenario. The fault
/// injector (hybrid-flaps) is armed through pre_run, as massf_cli does.
ExperimentResult run_batch(Scenario& sc, const Workload& w,
                           const Mapping& mapping, LayerObservation* layer,
                           bool traced) {
  std::unique_ptr<FaultInjector> injector;
  FaultSchedule faults;
  if (w.faults) {
    faults = make_faults(sc);
    injector = std::make_unique<FaultInjector>(sc.network(),
                                               sc.forwarding_mut());
  }
  FaultInjector* inj = injector.get();
  std::vector<std::int64_t>* stamps = traced ? &layer->barrier_ns : nullptr;
  sc.set_pre_run([inj, &faults, stamps](Engine& engine, NetSim& sim) {
    if (inj != nullptr) inj->arm(engine, sim, faults);
    if (stamps != nullptr) add_window_clock(engine, stamps);
  });
  ExperimentResult r = sc.run(mapping);
  if (inj != nullptr) {
    layer->faults_injected = inj->faults_injected();
    layer->ospf_reconverge_s = inj->ospf_reconvergence_s();
  }
  return r;
}

/// Live endpoints: HTTP client hosts (the forwarding plane has tables
/// toward their routers), shuffled by seed and paired up.
std::vector<std::pair<NodeId, NodeId>> live_pairs(const Scenario& sc,
                                                  std::int32_t count) {
  std::vector<NodeId> hosts(sc.client_hosts().begin(), sc.client_hosts().end());
  MASSF_CHECK(static_cast<std::int32_t>(hosts.size()) >= 2 * count);
  Rng rng = Rng(sc.options().seed).fork("perfbench-live-pairs");
  rng.shuffle(hosts);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (std::int32_t i = 0; i < count; ++i) {
    pairs.emplace_back(hosts[static_cast<std::size_t>(2 * i)],
                       hosts[static_cast<std::size_t>(2 * i + 1)]);
  }
  return pairs;
}

/// The live phase of online-live: a closed loop in which one application
/// thread sends a message from a to b and back through VSockets, `rounds`
/// times, rotating over host pairs, while the engine runs sequentially on
/// this thread with pacing off until the application asks it to stop.
/// HTTP traffic runs in the background.
RunStats run_live(Scenario& sc, const Workload& w, const Mapping& mapping,
                  Tracer& tr, Iteration* it, LayerObservation* layer,
                  bool traced) {
  const ScenarioOptions& opts = sc.options();
  const auto pairs = live_pairs(sc, w.pairs);
  EngineOptions eo;
  eo.lookahead = sc.lookahead_for(mapping.router_lp);
  eo.cost_per_event_s = opts.cluster.cost_per_event_s;
  eo.sync_cost_s = opts.cluster.sync_cost_s();
  eo.end_time = seconds(3600);
  eo.sync = opts.sync;
  eo.guard = opts.guard;
  Engine engine(eo);
  NetSim sim(sc.network(), sc.forwarding(), mapping.router_lp, engine,
             opts.netsim);
  TrafficManager manager(sim);
  HttpOptions http = opts.http;
  http.seed = opts.seed ^ 0x48545450;  // the measured run's HTTP stream
  manager.add(TrafficKind::kHttp,
              std::make_unique<HttpWorkload>(
                  std::vector<NodeId>(sc.client_hosts().begin(),
                                      sc.client_hosts().end()),
                  std::vector<NodeId>(sc.server_hosts().begin(),
                                      sc.server_hosts().end()),
                  http));
  auto agent_ptr = std::make_unique<Agent>(AgentOptions{});
  Agent& agent = *agent_ptr;
  manager.add(TrafficKind::kOnline, std::move(agent_ptr));
  agent.attach(engine);
  manager.start(engine, sim);
  if (traced) {
    engine.set_registry(layer->registry.get());
    add_window_clock(engine, &layer->barrier_ns);
  }

  struct Round {
    Clock::time_point start, end;
    double virtual_ms = 0;
  };
  std::vector<Round> rounds;
  rounds.reserve(static_cast<std::size_t>(w.rounds));
  std::int32_t violations = 0;
  std::exception_ptr app_error;
  RunStats stats;
  {
    ScopedSpan s(tr, "online.live_session");
    std::thread app([&] {
      try {
        std::vector<VSocket> sockets;
        for (const auto& [a, b] : pairs) {
          sockets.emplace_back(agent, a);
          sockets.emplace_back(agent, b);
        }
        for (std::int32_t r = 0; r < w.rounds; ++r) {
          const std::size_t p = static_cast<std::size_t>(r) % pairs.size();
          VSocket& ping = sockets[2 * p];
          VSocket& pong = sockets[2 * p + 1];
          const auto start = Clock::now();
          const SimTime sent_at = agent.virtual_now();
          ping.send(pong.local_host(), w.message_bytes);
          const auto d1 = pong.receive(20.0);
          if (!d1 || d1->failed) break;
          pong.send(ping.local_host(), w.message_bytes);
          const auto d2 = ping.receive(20.0);
          if (!d2 || d2->failed) break;
          if (d1->virtual_time < sent_at ||
              d2->virtual_time < d1->virtual_time) {
            ++violations;
          }
          rounds.push_back(Round{start, Clock::now(),
                                 to_milliseconds(d2->virtual_time - sent_at)});
        }
      } catch (...) {
        app_error = std::current_exception();
      }
      engine.request_stop();
    });
    try {
      stats = engine.run();
    } catch (...) {
      engine.request_stop();
      app.join();
      throw;
    }
    app.join();
    for (const Round& r : rounds) tr.record("online.round", r.start, r.end);
  }
  if (app_error) std::rethrow_exception(app_error);

  it->rounds_attempted = w.rounds;
  it->rounds_failed = w.rounds - static_cast<std::int32_t>(rounds.size());
  it->violations = violations;
  for (const Round& r : rounds) {
    it->rtt_wall_ms.push_back(wall_ms(r.start, r.end));
    layer->rtt_virtual_ms.push_back(r.virtual_ms);
  }
  if (traced) {
    sim.publish_metrics(*layer->registry);
    manager.publish_metrics(*layer->registry);
  }
  layer->live_retries = agent.retries();
  layer->live_failed = agent.requests_failed();
  return stats;
}

// ---- per-layer metrics (traced iterations) --------------------------------------

/// (router, destination) pairs of real forwarding paths between scenario
/// endpoints, in hop order — the lookups a packet on those paths makes.
std::vector<std::pair<NodeId, NodeId>> lookup_sample(const Scenario& sc) {
  const Network& net = sc.network();
  const ForwardingPlane& fp = sc.forwarding();
  std::vector<NodeId> ends(sc.client_hosts().begin(), sc.client_hosts().end());
  ends.insert(ends.end(), sc.server_hosts().begin(), sc.server_hosts().end());
  Rng rng = Rng(sc.options().seed).fork("perfbench-lookups");
  std::vector<std::pair<NodeId, NodeId>> sample;
  while (sample.size() < 20000) {
    const NodeId src = ends[rng.uniform(ends.size())];
    const NodeId dst = ends[rng.uniform(ends.size())];
    if (src == dst) continue;
    NodeId at = net.nodes[static_cast<std::size_t>(src)].attach_router;
    for (int hops = 0; hops < 64 && at != dst; ++hops) {
      sample.emplace_back(at, dst);
      const LinkId l = fp.next_link(at, dst);
      if (l == kInvalidLink) break;
      const NetLink& link = net.links[static_cast<std::size_t>(l)];
      at = link.a == at ? link.b : link.a;
    }
  }
  return sample;
}

/// Keeps the timed lookups observable to the optimizer.
volatile std::uint64_t lookup_sink = 0;

/// Median per-lookup cost of ForwardingPlane::next_link over the sample,
/// timed in passes.
double lookup_ns(const ForwardingPlane& fp,
                 const std::vector<std::pair<NodeId, NodeId>>& sample) {
  std::vector<double> per_lookup;
  std::uint64_t sink = 0;
  for (int pass = 0; pass < 25; ++pass) {
    const auto t0 = Clock::now();
    for (const auto& [router, dest] : sample) {
      sink += static_cast<std::uint64_t>(fp.next_link(router, dest));
    }
    const auto t1 = Clock::now();
    per_lookup.push_back(wall_ms(t0, t1) * 1e6 /
                         static_cast<double>(sample.size()));
  }
  lookup_sink = sink;
  return median(per_lookup);
}

/// The Scenario constructor's two big steps, timed separately on the same
/// options: topology generation and forwarding-table construction.
void time_topology_and_routing(const Scenario& sc, Tracer& tr,
                               double* topology_s, double* routing_s) {
  const ScenarioOptions& o = sc.options();
  const auto t0 = Clock::now();
  Network net;
  {
    ScopedSpan s(tr, "topology.build");
    if (o.multi_as) {
      MaBriteOptions mo;
      mo.num_as = o.num_as;
      mo.routers_per_as = o.num_routers / o.num_as;
      mo.num_hosts = o.num_hosts;
      mo.seed = o.seed;
      net = generate_multi_as(mo);
    } else {
      BriteOptions bo;
      bo.num_routers = o.num_routers;
      bo.num_hosts = o.num_hosts;
      bo.seed = o.seed;
      net = generate_flat(bo);
    }
  }
  const auto t1 = Clock::now();
  std::vector<NodeId> dests;
  for (auto hosts : {sc.client_hosts(), sc.server_hosts(), sc.app_hosts(),
                     sc.background_sources()}) {
    for (NodeId h : hosts) {
      dests.push_back(net.nodes[static_cast<std::size_t>(h)].attach_router);
    }
  }
  std::sort(dests.begin(), dests.end());
  dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
  {
    ScopedSpan s(tr, "routing.build");
    const ForwardingPlane fp = o.multi_as
                                   ? ForwardingPlane::build_multi_as(net, dests)
                                   : ForwardingPlane::build_flat(net, dests);
  }
  const auto t2 = Clock::now();
  *topology_s = seconds_between(t0, t1);
  *routing_s = seconds_between(t1, t2);
}

/// Every per-layer metric of one traced iteration, from the registry the
/// run published into, the window clock, and side measurements made on the
/// iteration's scenario after its timed part.
Layers layer_metrics(const Iteration& it, const LayerObservation& L,
                     const Scenario& sc, Tracer& tr) {
  double topology_s = 0, routing_s = 0;
  time_topology_and_routing(sc, tr, &topology_s, &routing_s);
  double lookup = 0;
  {
    ScopedSpan s(tr, "routing.lookup_replay");
    lookup = lookup_ns(sc.forwarding(), lookup_sample(sc));
  }

  std::map<std::string, double> counters, gauges;
  for (const auto& [n, v] : L.registry->counters()) {
    counters[n] = static_cast<double>(v);
  }
  for (const auto& [n, v] : L.registry->gauges()) gauges[n] = v;
  const auto counter = [&](const char* n) { return counters[n]; };

  std::vector<double> window_us;
  for (std::size_t i = 1; i < L.barrier_ns.size(); ++i) {
    window_us.push_back(
        static_cast<double>(L.barrier_ns[i] - L.barrier_ns[i - 1]) / 1e3);
  }
  std::vector<double> ospf_ms;
  for (double s : L.ospf_reconverge_s) ospf_ms.push_back(s * 1e3);
  const double events = static_cast<double>(L.stats.total_events);
  const double windows = static_cast<double>(L.stats.num_windows);
  const double cross = static_cast<double>(L.stats.cross_lp_events);
  const double batches = static_cast<double>(L.stats.merge_batches);
  const double delivered = counter("net.delivered");

  Layers m;
  m["sim.build_s"] = L.build_s;
  m["topology.build_s"] = topology_s;
  m["routing.build_s"] = routing_s;
  m["routing.lookup_ns"] = lookup;
  m["routing.lookups"] = counter("net.forwarded");
  m["lb.profile_s"] = L.profile_s;
  m["lb.map_s"] = L.map_s;
  m["lb.edge_cut"] = static_cast<double>(L.mapping.edge_cut);
  m["lb.balance"] = L.mapping.balance;
  m["lb.mll_ms"] = to_milliseconds(L.mapping.achieved_mll);
  m["lb.tmll_ms"] = to_milliseconds(L.mapping.tmll);
  m["pdes.events"] = events;
  m["pdes.windows"] = windows;
  m["pdes.events_per_window"] = ratio(events, windows);
  m["pdes.cross_events"] = cross;
  m["pdes.cross_share"] = ratio(cross, events);
  m["pdes.merge_batches"] = batches;
  m["pdes.events_per_batch"] = ratio(cross, batches);
  m["pdes.null_events"] = counter("pdes.sync.null_events");
  m["pdes.sync_stalls"] = counter("pdes.sync.stalls");
  m["pdes.heap_peak"] = gauges["pdes.sched.heap_peak"];
  m["pdes.events_per_s"] = ratio(events, it.run_s);
  m["pdes.window_wall_us_p50"] = percentile(window_us, 50);
  m["pdes.window_wall_us_p99"] = percentile(window_us, 99);
  m["net.forwarded"] = counter("net.forwarded");
  m["net.delivered"] = delivered;
  m["net.acks"] = counter("net.acks");
  m["net.drops"] = counter("net.dropped_queue") +
                   counter("net.dropped_no_route") +
                   counter("net.dropped_link_down") +
                   counter("net.dropped_node_down") +
                   counter("net.dropped_loss");
  m["net.retransmits"] = counter("net.retransmits");
  m["net.flows_started"] = counter("net.flows_started");
  m["net.flows_failed_share"] =
      ratio(counter("net.flows_failed"), counter("net.flows_started"));
  m["net.events_per_delivered"] = ratio(events, delivered);
  m["net.bg.recomputes"] = counter("net.bg.recomputes");
  m["net.bg.wakes"] = counter("net.bg.wakes");
  m["net.bg.flows_completed"] = counter("net.bg.flows_completed");
  m["net.bg.bytes_completed"] = counter("net.bg.bytes_completed");
  m["net.bg.recomputes_per_window"] =
      ratio(counter("net.bg.recomputes"), windows);
  m["traffic.http.requests"] = counter("traffic.http.requests");
  m["traffic.http.completion_share"] =
      ratio(counter("traffic.http.responses"), counter("traffic.http.requests"));
  m["traffic.bg.fluid_share"] =
      ratio(counter("traffic.bg.fluid"), counter("traffic.bg.flows"));
  m["fault.injected"] = static_cast<double>(L.faults_injected);
  m["fault.ospf_changes"] = static_cast<double>(ospf_ms.size());
  m["fault.ospf_reconverge_ms_p50"] = median(ospf_ms);
  m["online.rounds"] = static_cast<double>(L.rtt_virtual_ms.size());
  m["online.live_rtt_virtual_ms_p50"] = median(L.rtt_virtual_ms);
  m["online.retries"] = static_cast<double>(L.live_retries);
  m["online.requests_failed"] = static_cast<double>(L.live_failed);
  m["cluster.load_imbalance"] = L.metrics.load_imbalance;
  m["cluster.parallel_efficiency"] = L.metrics.parallel_efficiency;
  m["cluster.modeled_sync_s"] = L.stats.modeled_sync_s;
  return m;
}

/// One network, options to report. Set-up, measured run and report are
/// timed; the cross-executor check and a traced iteration's side
/// measurements happen afterwards, untimed.
Iteration iterate(const Workload& w, std::uint64_t seed, bool traced,
                  bool cross_check, Tracer& tr) {
  Iteration it;
  it.seed = seed;
  it.traced = traced;
  LayerObservation layer;
  ScenarioOptions opts = w.opts;
  opts.seed = seed;
  if (traced) {
    layer.registry = std::make_unique<obs::Registry>();
    if (!w.online) opts.registry = layer.registry.get();
    layer.barrier_ns.reserve(1 << 16);
  }
  std::unique_ptr<Scenario> sc;
  Mapping mapping;
  {
    ScopedSpan iter_span(tr, "iteration");
    const auto t0 = Clock::now();
    sc = set_up(opts, tr, &layer, &mapping);
    const auto t_setup = Clock::now();
    std::string report;
    if (w.online) {
      layer.stats = run_live(*sc, w, mapping, tr, &it, &layer, traced);
      layer.metrics = compute_metrics(layer.stats, opts.cluster);
    } else {
      ScopedSpan s(tr, "sim.run");
      const ExperimentResult r = run_batch(*sc, w, mapping, &layer, traced);
      layer.stats = r.stats;
      layer.metrics = r.metrics;
      it.fingerprint = fingerprint_json(r);
      report = summarize(r);
    }
    const auto t_run = Clock::now();
    {
      ScopedSpan s(tr, "sim.report");
      if (w.online) {
        std::printf("report: seed %llu: %zu live rounds, T=%gs events=%llu\n",
                    static_cast<unsigned long long>(seed),
                    it.rtt_wall_ms.size(), layer.metrics.simulation_time_s,
                    static_cast<unsigned long long>(layer.stats.total_events));
      } else {
        std::printf("report: seed %llu: %s\n",
                    static_cast<unsigned long long>(seed), report.c_str());
      }
    }
    const auto t_end = Clock::now();
    it.wall_s = seconds_between(t0, t_end);
    it.setup_s = seconds_between(t0, t_setup);
    it.run_s = seconds_between(t_setup, t_run);
  }
  it.vtime_s = to_seconds(layer.stats.end_vtime);
  it.modeled_T_s = layer.metrics.simulation_time_s;
  layer.mapping = mapping;
  if (cross_check && !w.online) {
    // The same scenario and mapping on the other executor must reproduce
    // the fingerprint.
    sc->set_executor_threads(w.reference_threads);
    LayerObservation unused;
    it.reference_fingerprint = fingerprint_json(
        run_batch(*sc, w, mapping, &unused, /*traced=*/false));
  }
  if (traced) it.layers = layer_metrics(it, layer, *sc, tr);
  return it;
}

// ---- output -------------------------------------------------------------------

std::string num(double v) { return obs::format_double(v); }

void print_raw(const Config& cfg, const Workload& w,
               const std::vector<Iteration>& iters, const Layers& layers) {
  std::string out = "PERFBENCH_RAW {";
  out += "\"workload\": \"" + cfg.workload + "\"";
  out += ", \"facts\": {\"host_cpus\": " + std::to_string(host_cpus()) +
         ", \"compiler\": \"gcc " __VERSION__ "\", \"build_type\": \"" +
         PERFBENCH_BUILD_TYPE + std::string("\", \"executor_threads\": ") +
         std::to_string(w.opts.executor_threads) +
         ", \"seed\": " + std::to_string(cfg.seed) +
         ", \"smoke\": " + (cfg.smoke ? "true" : "false") + "}";
  out += ", \"peak_rss_mb\": " + num(peak_rss_mb());
  out += ", \"iterations\": [";
  for (std::size_t i = 0; i < iters.size(); ++i) {
    const Iteration& it = iters[i];
    if (i > 0) out += ", ";
    out += "{\"seed\": " + std::to_string(it.seed) +
           ", \"traced\": " + (it.traced ? "true" : "false") +
           ", \"wall_s\": " + num(it.wall_s) +
           ", \"setup_s\": " + num(it.setup_s) +
           ", \"run_s\": " + num(it.run_s) +
           ", \"vtime_s\": " + num(it.vtime_s) +
           ", \"modeled_T_s\": " + num(it.modeled_T_s);
    if (w.online) {
      out += ", \"rounds_attempted\": " + std::to_string(it.rounds_attempted) +
             ", \"rounds_failed\": " + std::to_string(it.rounds_failed) +
             ", \"violations\": " + std::to_string(it.violations) +
             ", \"rtt_wall_ms\": [";
      for (std::size_t k = 0; k < it.rtt_wall_ms.size(); ++k) {
        out += (k > 0 ? ", " : "") + num(it.rtt_wall_ms[k]);
      }
      out += "]";
    } else {
      out += ", \"fingerprint\": " + it.fingerprint;
      out += ", \"reference_fingerprint\": " +
             (it.reference_fingerprint.empty() ? std::string("null")
                                               : it.reference_fingerprint);
    }
    out += "}";
  }
  out += "], \"layers\": {";
  bool first = true;
  for (const auto& [name, value] : layers) {
    out += (first ? "\"" : ", \"") + name + "\": " + num(value);
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int run(const Config& cfg) {
  Workload w;
  if (!make_workload(cfg, &w)) {
    std::fprintf(stderr, "unknown workload '%s'\n", cfg.workload.c_str());
    return 2;
  }
  // A traced run covers each network twice.
  const double per_network = w.nominal_s * (cfg.trace ? 2 : 1);
  const std::size_t networks =
      cfg.smoke ? 2
                : static_cast<std::size_t>(std::max(
                      cfg.trace ? 1.0 : 2.0,
                      std::round(cfg.seconds / per_network)));

  Tracer tracer(cfg.trace);
  Tracer untraced(false);
  std::vector<Iteration> iters;
  for (std::size_t i = 0; i < networks; ++i) {
    const std::uint64_t seed = cfg.seed + i * kSeedStride;
    const bool cross_check = i == 0 || cfg.cross_check_all;
    iters.push_back(iterate(w, seed, false, cross_check, untraced));
    if (cfg.trace) iters.push_back(iterate(w, seed, true, false, tracer));
  }

  Layers layers;
  if (cfg.trace) {
    std::map<std::string, std::vector<double>> samples;
    std::vector<double> overhead, plain_rtt;
    for (std::size_t i = 0; i + 1 < iters.size(); i += 2) {
      for (const auto& [name, value] : iters[i + 1].layers) {
        samples[name].push_back(value);
      }
      overhead.push_back(
          ratio(iters[i + 1].wall_s - iters[i].wall_s, iters[i].wall_s));
      plain_rtt.insert(plain_rtt.end(), iters[i].rtt_wall_ms.begin(),
                       iters[i].rtt_wall_ms.end());
    }
    for (const auto& [name, values] : samples) layers[name] = median(values);
    layers["trace.overhead_share"] = median(overhead);
    // Live round-trip times come from the untraced sessions.
    layers["online.live_rtt_p50_ms"] = median(plain_rtt);
    layers["online.live_rtt_p90_ms"] = percentile(plain_rtt, 90);
    if (!cfg.trace_out.empty() && !tracer.write(cfg.trace_out)) {
      std::fprintf(stderr, "cannot write trace to %s\n",
                   cfg.trace_out.c_str());
      return 1;
    }
  }
  print_raw(cfg, w, iters, layers);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace massf;
  FlagTable flags("perfbench_e2e",
                  "Runs one benchmark workload from scenario options to a "
                  "printed report and prints a PERFBENCH_RAW result line.");
  flags.add_string("workload", "fig06-hprof",
                   "fig06-hprof | fig10-gridnpb | hybrid-flaps | online-live");
  flags.add_int("seed", 2004, "input seed", [](std::int64_t v) {
    return v >= 0 ? "" : "must be >= 0";
  });
  flags.add_double("seconds", 20, "nominal measuring time", [](double v) {
    return v > 0 ? "" : "must be > 0";
  });
  flags.add_bool("trace", false, "traced run: per-layer metrics and spans");
  flags.add_bool("smoke", false, "tiny inputs (self-test)");
  flags.add_bool("cross-check-all", false,
                 "cross-executor check on every network, not just the first");
  flags.add_string("trace-out", "", "span file written by a traced run");
  flags.parse_or_exit(argc, argv);

  perfbench::Config cfg;
  cfg.workload = flags.get_string("workload");
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  cfg.seconds = flags.get_double("seconds");
  cfg.trace = flags.get_bool("trace");
  cfg.smoke = flags.get_bool("smoke");
  cfg.cross_check_all = flags.get_bool("cross-check-all");
  cfg.trace_out = flags.get_string("trace-out");
  try {
    return perfbench::run(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_e2e: %s\n", e.what());
    return 1;
  }
}
