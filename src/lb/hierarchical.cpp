#include "lb/hierarchical.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "graph/union_find.hpp"
#include "partition/partition.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace massf {

std::optional<HierarchicalResult> hierarchical_partition(
    const Graph& g, std::span<const std::int64_t> latencies,
    const MappingOptions& opts) {
  MASSF_CHECK(static_cast<EdgeId>(latencies.size()) == g.num_edges());
  MASSF_CHECK(opts.num_engines >= 1);

  const SimTime sync = opts.cluster.sync_cost_time(opts.num_engines);
  // First admissible threshold: smallest multiple of the step strictly
  // greater than the synchronization cost (Tmll must exceed C_N or all time
  // goes to synchronization).
  SimTime tmll = (sync / opts.tmll_step + 1) * opts.tmll_step;

  // Edges sorted by latency so the contraction grows incrementally as the
  // threshold rises.
  std::vector<EdgeId> order(static_cast<std::size_t>(g.num_edges()));
  std::iota(order.begin(), order.end(), EdgeId{0});
  std::sort(order.begin(), order.end(), [&](EdgeId a, EdgeId b) {
    return latencies[static_cast<std::size_t>(a)] <
           latencies[static_cast<std::size_t>(b)];
  });

  // Upper bound on the score of every candidate from the current threshold
  // on (DESIGN.md Section 4, item 6a). E = max(0, Es) * Ec <= Ec, and Ec is
  // mean / max of the k part loads: the loads sum to the total weight W, so
  // the mean is W / k, and no part is lighter than the heaviest union-find
  // cluster C(t), which the partitioner never splits. Clusters only merge
  // as t rises, so min(1, (W / k) / C(t)) never increases; once it falls
  // below the incumbent's E, no later candidate can replace it.
  const double mean_load = static_cast<double>(g.total_vertex_weight()) /
                           static_cast<double>(opts.num_engines);
  std::vector<Weight> cluster_weight;  // per union-find root
  cluster_weight.reserve(static_cast<std::size_t>(g.num_vertices()));
  Weight heaviest = 0;  // C(t)
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    cluster_weight.push_back(g.vertex_weight(v));
    heaviest = std::max(heaviest, g.vertex_weight(v));
  }

  UnionFind uf(g.num_vertices());
  std::size_t cursor = 0;

  std::optional<HierarchicalResult> best;
  std::int32_t tried = 0;
  std::int32_t pruned = 0;
  for (; tmll <= opts.tmll_max; tmll += opts.tmll_step) {
    while (cursor < order.size() &&
           latencies[static_cast<std::size_t>(order[cursor])] < tmll) {
      const EdgeId e = order[cursor++];
      const VertexId a = uf.find(g.edge_u(e));
      const VertexId b = uf.find(g.edge_v(e));
      if (a == b) continue;
      const Weight merged = cluster_weight[static_cast<std::size_t>(a)] +
                            cluster_weight[static_cast<std::size_t>(b)];
      uf.unite(a, b);
      cluster_weight[static_cast<std::size_t>(uf.find(a))] = merged;
      heaviest = std::max(heaviest, merged);
    }
    if (uf.num_sets() < opts.num_engines) break;  // not enough parallelism

    // Once pruning starts the rest of the sweep only counts the candidates
    // it skips. The relative margin keeps float rounding (the evaluator's
    // running mean can differ from W / k in the last bits) from pruning a
    // candidate that could win; a tie could not win either, since only a
    // strictly better E replaces the incumbent.
    const double bound =
        heaviest > 0 ? std::min(1.0, mean_load / static_cast<double>(heaviest))
                     : 1.0;
    if (pruned > 0 || (best && bound < best->score.e * (1 - 1e-9))) {
      ++pruned;
      continue;
    }

    const std::vector<VertexId> cluster = uf.compress();
    std::vector<EdgeId> origin;
    const Graph dumped =
        contract(g, cluster, uf.num_sets(), latencies, &origin);
    std::vector<std::int64_t> dumped_lat(origin.size());
    for (std::size_t i = 0; i < origin.size(); ++i) {
      dumped_lat[i] = latencies[static_cast<std::size_t>(origin[i])];
    }

    PartitionOptions popt;
    popt.num_parts = opts.num_engines;
    popt.imbalance_tolerance = opts.imbalance_tolerance;
    popt.seed = opts.seed;
    PartitionResult pr = partition_graph(dumped, popt);
    MASSF_CHECK(pr.part_weights.size() ==
                static_cast<std::size_t>(opts.num_engines));  // the bound's k
    ++tried;

    SimTime mll = min_cut_edge_aux(dumped, pr.part, dumped_lat);
    if (mll == std::numeric_limits<std::int64_t>::max()) {
      // Nothing cut (can only happen for num_engines == 1): the partition
      // is fully decoupled; treat the window as the sweep ceiling.
      mll = opts.tmll_max;
    }
    const PartitionScore score = score_partition(mll, sync, pr.part_weights);

    if (!best || score.e > best->score.e) {
      HierarchicalResult r;
      r.part.resize(static_cast<std::size_t>(g.num_vertices()));
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        r.part[static_cast<std::size_t>(v)] =
            pr.part[static_cast<std::size_t>(
                cluster[static_cast<std::size_t>(v)])];
      }
      r.tmll = tmll;
      r.achieved_mll = mll;
      r.score = score;
      r.edge_cut = pr.edge_cut;
      r.balance = pr.balance(dumped.total_vertex_weight());
      best = std::move(r);
    }
  }
  if (best) {
    best->candidates_tried = tried;
    best->candidates_pruned = pruned;
    MASSF_LOG(kDebug) << "hierarchical sweep: " << tried
                      << " candidates, " << pruned
                      << " pruned, chose Tmll="
                      << to_milliseconds(best->tmll) << "ms E="
                      << best->score.e;
  }
  return best;
}

}  // namespace massf
