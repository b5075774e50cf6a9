#include "partition/kway.hpp"

#include <algorithm>
#include <cmath>

#include "partition/bisect.hpp"
#include "util/check.hpp"

namespace massf {
namespace {

// Extracts the subgraph induced by `vertices`; `vertices[i]` becomes vertex
// i of the result.
Graph extract_subgraph(const Graph& g, std::span<const VertexId> vertices) {
  std::vector<VertexId> local(static_cast<std::size_t>(g.num_vertices()),
                              kInvalidVertex);
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    local[static_cast<std::size_t>(vertices[i])] = static_cast<VertexId>(i);
  }
  GraphBuilder builder(static_cast<VertexId>(vertices.size()));
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    const VertexId v = vertices[i];
    builder.set_vertex_weight(static_cast<VertexId>(i), g.vertex_weight(v));
    const auto nbrs = g.neighbors(v);
    const auto ws = g.arc_weights(v);
    for (std::size_t j = 0; j < nbrs.size(); ++j) {
      const VertexId lu = local[static_cast<std::size_t>(nbrs[j])];
      if (lu != kInvalidVertex && lu > static_cast<VertexId>(i)) {
        builder.add_edge(static_cast<VertexId>(i), lu, ws[j]);
      }
    }
  }
  return builder.build();
}

void recurse(const Graph& g, std::span<const VertexId> vertices,
             std::int32_t k, std::int32_t first_part, double tolerance,
             const PartitionOptions& opts, Rng& rng,
             std::vector<VertexId>& out) {
  if (k == 1) {
    for (VertexId v : vertices) {
      out[static_cast<std::size_t>(v)] = first_part;
    }
    return;
  }
  const std::int32_t k0 = k / 2;
  const std::int32_t k1 = k - k0;
  std::vector<VertexId> left, right;
  {
    // The vertex lists are ascending subsequences of 0..n-1, so a full one
    // is the top level, and the subgraph it induces is g itself (the
    // builder keeps edges sorted, so adjacency order matches too): bisect
    // g in place instead of copying it. This level's subgraph and bisection
    // are freed before the recursion, so only one level's working set is
    // alive at a time.
    Graph sub;
    const bool whole =
        vertices.size() == static_cast<std::size_t>(g.num_vertices());
    if (!whole) sub = extract_subgraph(g, vertices);
    const Graph& level = whole ? g : sub;
    const auto target0 = static_cast<Weight>(
        static_cast<double>(level.total_vertex_weight()) * k0 / k);
    const std::vector<VertexId> half =
        multilevel_bisect(level, target0, opts, tolerance, rng);
    for (std::size_t i = 0; i < vertices.size(); ++i) {
      (half[i] == 0 ? left : right).push_back(vertices[i]);
    }
  }
  recurse(g, left, k0, first_part, tolerance, opts, rng, out);
  recurse(g, right, k1, first_part + k0, tolerance, opts, rng, out);
}

}  // namespace

std::vector<VertexId> recursive_bisection(const Graph& g,
                                          const PartitionOptions& opts,
                                          Rng& rng) {
  MASSF_CHECK(opts.num_parts >= 1);
  std::vector<VertexId> part(static_cast<std::size_t>(g.num_vertices()), 0);
  std::vector<VertexId> all(static_cast<std::size_t>(g.num_vertices()));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    all[static_cast<std::size_t>(v)] = v;
  }
  // Per-bisection tolerance so that log2(k) nested bisections compound to at
  // most the requested overall imbalance.
  const double depth =
      std::max(1.0, std::ceil(std::log2(static_cast<double>(opts.num_parts))));
  const double tol = std::pow(opts.imbalance_tolerance, 1.0 / depth);
  recurse(g, all, opts.num_parts, 0, tol, opts, rng, part);
  return part;
}

void kway_refine(const Graph& g, std::span<VertexId> part,
                 const PartitionOptions& opts) {
  const VertexId n = g.num_vertices();
  const std::int32_t k = opts.num_parts;
  if (k <= 1 || n == 0) return;

  std::vector<Weight> pw = compute_part_weights(g, part, k);
  const auto max_w = static_cast<Weight>(
      std::ceil(static_cast<double>(g.total_vertex_weight()) / k *
                opts.imbalance_tolerance));

  std::vector<Weight> conn(static_cast<std::size_t>(k), 0);
  for (std::int32_t pass = 0; pass < opts.refinement_passes; ++pass) {
    bool any_move = false;
    for (VertexId v = 0; v < n; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      const VertexId home = part[vi];
      // Connectivity of v to each part it touches.
      const auto nbrs = g.neighbors(v);
      const auto ws = g.arc_weights(v);
      bool boundary = false;
      std::fill(conn.begin(), conn.end(), Weight{0});
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const VertexId p = part[static_cast<std::size_t>(nbrs[i])];
        conn[static_cast<std::size_t>(p)] += ws[i];
        if (p != home) boundary = true;
      }
      if (!boundary) continue;

      VertexId best = home;
      Weight best_gain = 0;
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const VertexId p = part[static_cast<std::size_t>(nbrs[i])];
        if (p == best) continue;
        const Weight gain =
            conn[static_cast<std::size_t>(p)] -
            conn[static_cast<std::size_t>(home)];
        const Weight wv = g.vertex_weight(v);
        if (gain > best_gain &&
            pw[static_cast<std::size_t>(p)] + wv <= max_w &&
            pw[static_cast<std::size_t>(home)] - wv > 0) {
          best_gain = gain;
          best = p;
        }
      }
      if (best != home) {
        pw[static_cast<std::size_t>(home)] -= g.vertex_weight(v);
        pw[static_cast<std::size_t>(best)] += g.vertex_weight(v);
        part[vi] = best;
        any_move = true;
      }
    }
    if (!any_move) break;
  }
}

}  // namespace massf
