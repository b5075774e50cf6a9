// Microbenchmarks for the multilevel partitioner. Context: the paper's
// Section 3.4.3 relies on the partitioner being fast enough to sweep many
// Tmll thresholds ("METIS can partition a graph with 10,000 vertexes in
// about 10 seconds"); these benches verify ours is in that class.
#include <benchmark/benchmark.h>

#include <optional>

#include "graph/graph.hpp"
#include "lb/graph_prep.hpp"
#include "lb/hierarchical.hpp"
#include "partition/partition.hpp"
#include "topology/brite.hpp"
#include "util/rng.hpp"

namespace {

massf::Graph make_graph(massf::VertexId n, std::uint64_t seed) {
  massf::Rng rng(seed);
  massf::GraphBuilder b(n);
  for (massf::VertexId v = 0; v < n; ++v) {
    b.add_edge(v, (v + 1) % n, static_cast<massf::Weight>(1 + rng.uniform(100)));
    b.set_vertex_weight(v, static_cast<massf::Weight>(1 + rng.uniform(50)));
  }
  for (massf::VertexId v = 0; v < 2 * n; ++v) {
    const auto a = static_cast<massf::VertexId>(rng.uniform(n));
    const auto c = static_cast<massf::VertexId>(rng.uniform(n));
    if (a != c) b.add_edge(a, c, static_cast<massf::Weight>(1 + rng.uniform(100)));
  }
  return b.build();
}

void BM_PartitionKway(benchmark::State& state) {
  const auto n = static_cast<massf::VertexId>(state.range(0));
  const auto k = static_cast<std::int32_t>(state.range(1));
  const massf::Graph g = make_graph(n, 7);
  massf::PartitionOptions opts;
  opts.num_parts = k;
  for (auto _ : state) {
    auto r = massf::partition_graph(g, opts);
    benchmark::DoNotOptimize(r.edge_cut);
  }
  state.SetLabel("vertices=" + std::to_string(n) + " k=" + std::to_string(k));
}
BENCHMARK(BM_PartitionKway)
    ->Args({1000, 16})
    ->Args({10000, 16})
    ->Args({10000, 90})
    ->Args({20000, 90})
    ->Unit(benchmark::kMillisecond);

void BM_EdgeCut(benchmark::State& state) {
  const massf::Graph g = make_graph(10000, 7);
  massf::PartitionOptions opts;
  opts.num_parts = 16;
  const auto r = massf::partition_graph(g, opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(massf::compute_edge_cut(g, r.part));
  }
}
BENCHMARK(BM_EdgeCut);

// The HTOP Tmll sweep on a 2,000-router BRITE network over 24 engines: one
// contraction + partition per threshold until the score bound prunes the
// rest. Counters give the candidates partitioned and pruned.
void BM_HierarchicalSweep(benchmark::State& state) {
  massf::BriteOptions bo;
  bo.num_routers = 2000;
  bo.num_hosts = 100;
  bo.seed = 3;
  const massf::Network net = massf::generate_flat(bo);
  massf::MappingOptions mo;
  mo.kind = massf::MappingKind::kHTop;
  mo.num_engines = 24;
  mo.cluster.num_engine_nodes = mo.num_engines;
  std::vector<std::int64_t> lats;
  const massf::Graph g =
      massf::prepare_graph(net, mo.kind, nullptr, mo, &lats);
  std::optional<massf::HierarchicalResult> r;
  for (auto _ : state) {
    r = massf::hierarchical_partition(g, lats, mo);
    benchmark::DoNotOptimize(r->edge_cut);
  }
  state.counters["tried"] = r->candidates_tried;
  state.counters["pruned"] = r->candidates_pruned;
}
BENCHMARK(BM_HierarchicalSweep)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
