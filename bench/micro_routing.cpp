// Microbenchmarks for the routing substrate: per-destination reverse-SPT
// computation (what makes 20k-router tables feasible), a whole flat plane
// built on worker threads, incremental OSPF reconvergence after a link
// flap, and the BGP policy fixed-point solve.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "routing/bgp.hpp"
#include "routing/forwarding.hpp"
#include "routing/ospf.hpp"
#include "topology/brite.hpp"
#include "topology/mabrite.hpp"

namespace {

using namespace massf;

void BM_OspfPerDestination(benchmark::State& state) {
  BriteOptions o;
  o.num_routers = static_cast<std::int32_t>(state.range(0));
  o.num_hosts = 10;
  o.seed = 9;
  const Network net = generate_flat(o);
  std::vector<NodeId> members(static_cast<std::size_t>(net.num_routers));
  std::iota(members.begin(), members.end(), NodeId{0});
  NodeId dest = 0;
  for (auto _ : state) {
    OspfDomain ospf(net, members, true);
    ospf.add_destination(net, dest);
    dest = (dest + 1) % net.num_routers;
    benchmark::DoNotOptimize(ospf.num_destinations());
  }
  state.SetLabel(std::to_string(o.num_routers) + " routers");
}
BENCHMARK(BM_OspfPerDestination)->Arg(2000)->Arg(20000)
    ->Unit(benchmark::kMillisecond);

// A whole flat plane as ForwardingPlane::build_flat makes it: 2,000
// routers, 1,000 destination trees computed on the default worker count.
void BM_ForwardingBuildFlat(benchmark::State& state) {
  BriteOptions o;
  o.num_routers = 2000;
  o.num_hosts = 10;
  o.seed = 9;
  const Network net = generate_flat(o);
  std::vector<NodeId> dests;
  for (NodeId r = 0; r < net.num_routers; r += 2) dests.push_back(r);
  for (auto _ : state) {
    const ForwardingPlane fp = ForwardingPlane::build_flat(net, dests);
    benchmark::DoNotOptimize(fp.next_link(1, 0));
  }
  state.SetLabel(std::to_string(dests.size()) + " destinations, " +
                 std::to_string(o.num_routers) + " routers");
}
BENCHMARK(BM_ForwardingBuildFlat)->Unit(benchmark::kMillisecond);

// One router-router link flap on a 2,000-router flat plane with 1,000
// destination trees: fail the link, reconverge, restore it, reconverge.
// Successive iterations walk the router-router links in a seeded shuffled
// order, so any run length flaps a sample of hub and leaf links alike.
void BM_OspfReconverge(benchmark::State& state) {
  BriteOptions o;
  o.num_routers = 2000;
  o.num_hosts = 10;
  o.seed = 9;
  const Network net = generate_flat(o);
  std::vector<NodeId> dests;
  for (NodeId r = 0; r < net.num_routers; r += 2) dests.push_back(r);
  std::vector<LinkId> links;
  for (LinkId l = 0; l < static_cast<LinkId>(net.links.size()); ++l) {
    const NetLink& link = net.links[static_cast<std::size_t>(l)];
    if (net.is_router(link.a) && net.is_router(link.b)) links.push_back(l);
  }
  std::shuffle(links.begin(), links.end(), std::mt19937_64(o.seed));
  ForwardingPlane fp = ForwardingPlane::build_flat(net, dests);
  std::size_t next = 0;
  for (auto _ : state) {
    const LinkId l = links[next];
    next = (next + 1) % links.size();
    fp.set_link_state(l, false);
    fp.reconverge();
    fp.set_link_state(l, true);
    fp.reconverge();
    benchmark::DoNotOptimize(fp.reconverge_stats().trees_updated);
  }
  const auto& st = fp.reconverge_stats();
  const double flaps = static_cast<double>(st.reconverges) / 2;
  state.counters["trees_per_flap"] =
      static_cast<double>(st.trees_updated) / flaps;
  state.counters["routers_per_flap"] =
      static_cast<double>(st.routers_resettled) / flaps;
  state.SetLabel(std::to_string(dests.size()) + " destinations, " +
                 std::to_string(o.num_routers) + " routers");
}
BENCHMARK(BM_OspfReconverge)->Unit(benchmark::kMicrosecond);

void BM_BgpSolve(benchmark::State& state) {
  MaBriteOptions o;
  o.num_as = static_cast<std::int32_t>(state.range(0));
  o.routers_per_as = 4;
  o.num_hosts = 10;
  o.seed = 9;
  const Network net = generate_multi_as(o);
  for (auto _ : state) {
    BgpSolver bgp(net.num_as(), net.as_adjacency);
    bgp.solve();
    benchmark::DoNotOptimize(bgp.iterations());
  }
  state.SetLabel(std::to_string(o.num_as) + " ASes");
}
BENCHMARK(BM_BgpSolve)->Arg(20)->Arg(100)->Arg(300)
    ->Unit(benchmark::kMillisecond);

void BM_TopologyGeneration(benchmark::State& state) {
  BriteOptions o;
  o.num_routers = static_cast<std::int32_t>(state.range(0));
  o.num_hosts = o.num_routers / 2;
  for (auto _ : state) {
    o.seed += 1;
    const Network net = generate_flat(o);
    benchmark::DoNotOptimize(net.links.size());
  }
}
BENCHMARK(BM_TopologyGeneration)->Arg(2000)->Arg(20000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
