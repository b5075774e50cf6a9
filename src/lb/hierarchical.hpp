// The hierarchical partitioning algorithm (paper Section 3.4.3).
//
// For each candidate threshold Tmll (starting just above the
// synchronization cost C_N, stepping by tmll_step): contract every edge
// with latency < Tmll (guaranteeing achieved MLL >= Tmll), partition the
// contracted ("dumped") graph, and score the result with E = Es * Ec.
// The best-scoring candidate is expanded back to the original graph.
//
// The sweep stops partitioning once an upper bound on E, which never rises
// with the threshold, falls below the best E found: no later candidate
// could replace it, so the result equals the full sweep's.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "lb/mapping.hpp"

namespace massf {

struct HierarchicalResult {
  std::vector<VertexId> part;  ///< per original vertex
  SimTime tmll = 0;
  SimTime achieved_mll = 0;
  PartitionScore score;
  Weight edge_cut = 0;
  double balance = 0;
  std::int32_t candidates_tried = 0;   ///< thresholds partitioned
  std::int32_t candidates_pruned = 0;  ///< thresholds the bound skipped
};

/// Runs the Tmll sweep. `latencies` align with g's edge ids. Returns
/// nullopt when even the smallest admissible threshold leaves fewer
/// clusters than engines (the caller falls back to a flat partition).
std::optional<HierarchicalResult> hierarchical_partition(
    const Graph& g, std::span<const std::int64_t> latencies,
    const MappingOptions& opts);

}  // namespace massf
