#include "graph/graph.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace massf {

Weight Graph::incident_weight(VertexId v) const {
  Weight total = 0;
  for (Weight w : arc_weights(v)) total += w;
  return total;
}

void Graph::set_vertex_weights(std::vector<Weight> w) {
  MASSF_CHECK(static_cast<VertexId>(w.size()) == num_vertices());
  vwgt_ = std::move(w);
  total_vwgt_ = std::accumulate(vwgt_.begin(), vwgt_.end(), Weight{0});
}

void Graph::set_edge_weights(std::vector<Weight> w) {
  MASSF_CHECK(static_cast<EdgeId>(w.size()) == num_edges());
  edge_w_ = std::move(w);
  for (std::size_t arc = 0; arc < adjwgt_.size(); ++arc) {
    adjwgt_[arc] = edge_w_[static_cast<std::size_t>(arc_edge_[arc])];
  }
}

GraphBuilder::GraphBuilder(VertexId num_vertices)
    : nv_(num_vertices), vwgt_(static_cast<std::size_t>(num_vertices), 1) {
  MASSF_CHECK(num_vertices >= 0);
}

void GraphBuilder::set_vertex_weight(VertexId v, Weight w) {
  MASSF_CHECK(v >= 0 && v < nv_);
  MASSF_CHECK(w >= 0);
  vwgt_[v] = w;
}

void GraphBuilder::add_edge(VertexId u, VertexId v, Weight w) {
  MASSF_CHECK(u >= 0 && u < nv_ && v >= 0 && v < nv_);
  if (u == v) return;
  if (u > v) std::swap(u, v);
  edges_.push_back({u, v, w});
}

void GraphBuilder::reserve_edges(std::size_t count) { edges_.reserve(count); }

Graph GraphBuilder::build() {
  // Sort by (u, v) with two stable counting passes, by v and then by u,
  // so duplicate edges sit together; their weights merge by summing, in
  // any order. Linear in edges plus vertices: the partitioner's coarsening
  // builds many small graphs.
  {
    std::vector<RawEdge> by_v(edges_.size());
    std::vector<std::int32_t> start(static_cast<std::size_t>(nv_) + 1);
    const auto counting_pass = [&start](const std::vector<RawEdge>& from,
                                        std::vector<RawEdge>& to, auto key) {
      std::fill(start.begin(), start.end(), 0);
      for (const RawEdge& e : from) ++start[key(e) + 1];
      for (std::size_t i = 1; i < start.size(); ++i) start[i] += start[i - 1];
      for (const RawEdge& e : from) to[start[key(e)]++] = e;
    };
    counting_pass(edges_, by_v, [](const RawEdge& e) {
      return static_cast<std::size_t>(e.v);
    });
    counting_pass(by_v, edges_, [](const RawEdge& e) {
      return static_cast<std::size_t>(e.u);
    });
  }
  std::size_t kept = 0;
  for (const RawEdge& e : edges_) {
    if (kept > 0 && edges_[kept - 1].u == e.u && edges_[kept - 1].v == e.v) {
      edges_[kept - 1].w += e.w;
    } else {
      edges_[kept++] = e;
    }
  }
  edges_.resize(kept);

  Graph g;
  g.vwgt_ = std::move(vwgt_);
  g.total_vwgt_ = std::accumulate(g.vwgt_.begin(), g.vwgt_.end(), Weight{0});
  g.num_edges_ = static_cast<EdgeId>(edges_.size());
  g.edge_u_.reserve(edges_.size());
  g.edge_v_.reserve(edges_.size());
  g.edge_w_.reserve(edges_.size());
  for (const RawEdge& e : edges_) {
    g.edge_u_.push_back(e.u);
    g.edge_v_.push_back(e.v);
    g.edge_w_.push_back(e.w);
  }

  // CSR over both arc directions.
  g.xadj_.assign(static_cast<std::size_t>(nv_) + 1, 0);
  for (const RawEdge& e : edges_) {
    ++g.xadj_[static_cast<std::size_t>(e.u) + 1];
    ++g.xadj_[static_cast<std::size_t>(e.v) + 1];
  }
  for (std::size_t i = 1; i < g.xadj_.size(); ++i) g.xadj_[i] += g.xadj_[i - 1];

  const std::size_t narcs = edges_.size() * 2;
  g.adjncy_.resize(narcs);
  g.adjwgt_.resize(narcs);
  g.arc_edge_.resize(narcs);
  std::vector<std::int32_t> cursor(g.xadj_.begin(), g.xadj_.end() - 1);
  for (EdgeId e = 0; e < g.num_edges_; ++e) {
    const VertexId u = g.edge_u_[e], v = g.edge_v_[e];
    const Weight w = g.edge_w_[e];
    auto& cu = cursor[static_cast<std::size_t>(u)];
    g.adjncy_[static_cast<std::size_t>(cu)] = v;
    g.adjwgt_[static_cast<std::size_t>(cu)] = w;
    g.arc_edge_[static_cast<std::size_t>(cu)] = e;
    ++cu;
    auto& cv = cursor[static_cast<std::size_t>(v)];
    g.adjncy_[static_cast<std::size_t>(cv)] = u;
    g.adjwgt_[static_cast<std::size_t>(cv)] = w;
    g.arc_edge_[static_cast<std::size_t>(cv)] = e;
    ++cv;
  }
  edges_.clear();
  return g;
}

Graph contract(const Graph& g, std::span<const VertexId> cluster,
               VertexId num_clusters, std::span<const std::int64_t> edge_aux,
               std::vector<EdgeId>* edge_origin) {
  MASSF_CHECK(static_cast<VertexId>(cluster.size()) == g.num_vertices());
  GraphBuilder builder(num_clusters);

  std::vector<Weight> cw(static_cast<std::size_t>(num_clusters), 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const VertexId c = cluster[static_cast<std::size_t>(v)];
    MASSF_CHECK(c >= 0 && c < num_clusters);
    cw[static_cast<std::size_t>(c)] += g.vertex_weight(v);
  }
  for (VertexId c = 0; c < num_clusters; ++c) {
    builder.set_vertex_weight(c, cw[static_cast<std::size_t>(c)]);
  }

  builder.reserve_edges(static_cast<std::size_t>(g.num_edges()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    builder.add_edge(cluster[static_cast<std::size_t>(g.edge_u(e))],
                     cluster[static_cast<std::size_t>(g.edge_v(e))],
                     g.edge_weight(e));
  }
  Graph out = builder.build();

  if (edge_origin != nullptr) {
    // Per contracted edge, the representative original edge: the one with
    // the minimum auxiliary value (e.g. smallest link latency), lowest id on
    // a tie, so the achieved MLL of the contracted partition can be traced
    // back. build() leaves every adjacency list sorted by neighbor id (edges
    // are numbered in (u, v) order), so the contracted edge of a pair is
    // found by binary search.
    edge_origin->assign(static_cast<std::size_t>(out.num_edges()),
                        EdgeId{-1});
    const auto aux = [&](EdgeId e) {
      return edge_aux.empty() ? std::int64_t{0}
                              : edge_aux[static_cast<std::size_t>(e)];
    };
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const VertexId cu = cluster[static_cast<std::size_t>(g.edge_u(e))];
      const VertexId cv = cluster[static_cast<std::size_t>(g.edge_v(e))];
      if (cu == cv) continue;
      const auto nbrs = out.neighbors(cu);
      const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), cv);
      MASSF_CHECK(it != nbrs.end() && *it == cv);
      const EdgeId ce = out.arc_edge_ids(cu)[static_cast<std::size_t>(
          it - nbrs.begin())];
      EdgeId& rep = (*edge_origin)[static_cast<std::size_t>(ce)];
      if (rep < 0 || aux(e) < aux(rep)) rep = e;
    }
  }
  return out;
}

}  // namespace massf
