// Weighted undirected graph in CSR form.
//
// This is the exchange format between the topology layer, the load-balance
// graph preparation, and the partitioner: vertices carry a load weight
// (estimated simulation work), arcs carry a cut weight (cost of splitting)
// and an undirected edge id through which auxiliary per-edge data (link
// latency) is looked up.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace massf {

using VertexId = std::int32_t;
using EdgeId = std::int32_t;
using Weight = std::int64_t;

constexpr VertexId kInvalidVertex = -1;

class GraphBuilder;

class Graph {
 public:
  Graph() = default;

  VertexId num_vertices() const { return static_cast<VertexId>(vwgt_.size()); }
  EdgeId num_edges() const { return num_edges_; }  ///< undirected edge count

  Weight vertex_weight(VertexId v) const { return vwgt_[v]; }
  Weight total_vertex_weight() const { return total_vwgt_; }

  std::int32_t degree(VertexId v) const { return xadj_[v + 1] - xadj_[v]; }

  /// Neighbors of v (one entry per incident undirected edge).
  std::span<const VertexId> neighbors(VertexId v) const {
    return {adjncy_.data() + xadj_[v],
            static_cast<std::size_t>(xadj_[v + 1] - xadj_[v])};
  }

  /// Arc weights aligned with neighbors(v).
  std::span<const Weight> arc_weights(VertexId v) const {
    return {adjwgt_.data() + xadj_[v],
            static_cast<std::size_t>(xadj_[v + 1] - xadj_[v])};
  }

  /// Undirected edge ids aligned with neighbors(v).
  std::span<const EdgeId> arc_edge_ids(VertexId v) const {
    return {arc_edge_.data() + xadj_[v],
            static_cast<std::size_t>(xadj_[v + 1] - xadj_[v])};
  }

  /// Endpoints of undirected edge e (u < v ordering is not guaranteed).
  VertexId edge_u(EdgeId e) const { return edge_u_[e]; }
  VertexId edge_v(EdgeId e) const { return edge_v_[e]; }
  Weight edge_weight(EdgeId e) const { return edge_w_[e]; }

  /// Sum of arc weights incident to v.
  Weight incident_weight(VertexId v) const;

  /// Replaces all vertex weights (size must equal num_vertices()).
  void set_vertex_weights(std::vector<Weight> w);

  /// Replaces all edge weights (size must equal num_edges()); arc weights
  /// are updated consistently.
  void set_edge_weights(std::vector<Weight> w);

 private:
  friend class GraphBuilder;

  std::vector<std::int32_t> xadj_;  // size nv+1
  std::vector<VertexId> adjncy_;
  std::vector<Weight> adjwgt_;
  std::vector<EdgeId> arc_edge_;
  std::vector<Weight> vwgt_;
  std::vector<VertexId> edge_u_, edge_v_;
  std::vector<Weight> edge_w_;
  EdgeId num_edges_ = 0;
  Weight total_vwgt_ = 0;
};

/// Accumulates edges, merges duplicates (summing weights), drops self loops,
/// and produces a CSR Graph.
class GraphBuilder {
 public:
  explicit GraphBuilder(VertexId num_vertices);

  void set_vertex_weight(VertexId v, Weight w);

  /// Adds an undirected edge. Duplicate (u,v) pairs are merged with weights
  /// summed; self loops are ignored.
  void add_edge(VertexId u, VertexId v, Weight w = 1);

  /// Reserves room for `count` add_edge calls.
  void reserve_edges(std::size_t count);

  Graph build();

 private:
  VertexId nv_;
  std::vector<Weight> vwgt_;
  struct RawEdge {
    VertexId u, v;
    Weight w;
  };
  std::vector<RawEdge> edges_;
};

/// Builds the contracted ("dumped" in the paper's terms) graph: vertex i of
/// the result is cluster i, with vertex weight the sum of member weights and
/// inter-cluster edges merged with weights summed. `cluster[v]` must be in
/// [0, num_clusters). `edge_origin`, if non-null, receives for each
/// contracted edge one representative original edge id: the one of minimum
/// `edge_aux` value (lowest id on a tie).
Graph contract(const Graph& g, std::span<const VertexId> cluster,
               VertexId num_clusters,
               std::span<const std::int64_t> edge_aux = {},
               std::vector<EdgeId>* edge_origin = nullptr);

}  // namespace massf
