#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <set>

#include "graph/union_find.hpp"
#include "lb/graph_prep.hpp"
#include "lb/hierarchical.hpp"
#include "lb/mapping.hpp"
#include "lb/profile.hpp"
#include "partition/partition.hpp"
#include "topology/brite.hpp"
#include "topology/mabrite.hpp"
#include "util/rng.hpp"

namespace massf {
namespace {

Network test_network(std::int32_t routers = 400, std::uint64_t seed = 21) {
  BriteOptions o;
  o.num_routers = routers;
  o.num_hosts = routers / 4;
  o.seed = seed;
  return generate_flat(o);
}

MappingOptions base_opts(std::int32_t engines = 8) {
  MappingOptions o;
  o.num_engines = engines;
  o.cluster.num_engine_nodes = engines;
  o.seed = 3;
  return o;
}

TEST(MappingKindHelpers, NamesAndPredicates) {
  EXPECT_STREQ(mapping_kind_name(MappingKind::kHProf), "HPROF");
  EXPECT_STREQ(mapping_kind_name(MappingKind::kTop2), "TOP2");
  EXPECT_TRUE(mapping_uses_profile(MappingKind::kProf));
  EXPECT_TRUE(mapping_uses_profile(MappingKind::kHProf));
  EXPECT_FALSE(mapping_uses_profile(MappingKind::kHTop));
  EXPECT_TRUE(mapping_is_hierarchical(MappingKind::kHTop));
  EXPECT_FALSE(mapping_is_hierarchical(MappingKind::kProf2));
}

TEST(GraphPrep, TopWeightsAreIncidentBandwidth) {
  const Network net = test_network(100);
  const auto w = top_vertex_weights(net);
  ASSERT_EQ(static_cast<NodeId>(w.size()), net.num_routers);
  // Recompute for one router by hand.
  const NodeId r = 0;
  Weight expect = 0;
  for (const auto& inc : net.incident(r)) {
    expect += static_cast<Weight>(
        net.links[static_cast<std::size_t>(inc.link)].bandwidth_bps / 1e6);
  }
  EXPECT_EQ(w[0], std::max<Weight>(expect, 1));
}

TEST(GraphPrep, ProfWeightsFromProfile) {
  const Network net = test_network(100);
  TrafficProfile p;
  p.router_events.assign(static_cast<std::size_t>(net.num_routers), 0);
  p.router_events[7] = 999;
  const auto w = prof_vertex_weights(net, p);
  EXPECT_EQ(w[7], 1000);  // +1 floor
  EXPECT_EQ(w[8], 1);
}

TEST(GraphPrep, PlainEdgeWeightInverseLatency) {
  EXPECT_EQ(edge_weight_plain(milliseconds(1)), 1000);
  EXPECT_EQ(edge_weight_plain(microseconds(10)), 100000);
  EXPECT_GT(edge_weight_plain(microseconds(50)),
            edge_weight_plain(milliseconds(5)));
  // Clamped at 1 for huge latencies.
  EXPECT_EQ(edge_weight_plain(seconds(100)), 1);
}

TEST(GraphPrep, TunedWeightsAmplifySmallLatencies) {
  const std::vector<std::int64_t> lats{microseconds(10), milliseconds(1),
                                       milliseconds(10)};
  const auto plain0 = edge_weight_plain(lats[0]);
  const auto plain1 = edge_weight_plain(lats[1]);
  const auto tuned = edge_weights_tuned(lats, 2.0);
  // The tuned ratio between the 10us and 1ms edges must exceed the plain
  // ratio (that is the entire point of the TOP2/PROF2 adjustment).
  const double plain_ratio =
      static_cast<double>(plain0) / static_cast<double>(plain1);
  const double tuned_ratio =
      static_cast<double>(tuned[0]) / static_cast<double>(tuned[1]);
  EXPECT_GT(tuned_ratio, 2 * plain_ratio);
}

TEST(GraphPrep, PrepareGraphAlignsLatencies) {
  const Network net = test_network(200);
  MappingOptions opts = base_opts();
  std::vector<std::int64_t> lats;
  const Graph g =
      prepare_graph(net, MappingKind::kTop, nullptr, opts, &lats);
  ASSERT_EQ(static_cast<EdgeId>(lats.size()), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(g.edge_weight(e),
              edge_weight_plain(lats[static_cast<std::size_t>(e)]));
  }
}

TEST(Profile, FoldChargesHostsToAttachRouter) {
  const Network net = test_network(50);
  std::vector<std::uint64_t> events(net.nodes.size(), 0);
  const NodeId host = net.num_routers;  // first host
  const NodeId attach =
      net.nodes[static_cast<std::size_t>(host)].attach_router;
  events[static_cast<std::size_t>(host)] = 10;
  events[static_cast<std::size_t>(attach)] = 5;
  const TrafficProfile p = fold_profile(net, events);
  EXPECT_EQ(p.router_events[static_cast<std::size_t>(attach)], 15u);
}

TEST(Profile, NaiveMappingContiguousAndComplete) {
  const Network net = test_network(100);
  const auto m = naive_mapping(net, 7);
  ASSERT_EQ(static_cast<NodeId>(m.size()), net.num_routers);
  std::set<LpId> used(m.begin(), m.end());
  EXPECT_EQ(used.size(), 7u);
  // Contiguous blocks: non-decreasing.
  EXPECT_TRUE(std::is_sorted(m.begin(), m.end()));
}

TEST(Score, EsEcComposition) {
  const std::vector<Weight> balanced{10, 10, 10};
  const PartitionScore s =
      score_partition(milliseconds(2), milliseconds(1), balanced);
  EXPECT_NEAR(s.es, 0.5, 1e-12);
  EXPECT_NEAR(s.ec, 1.0, 1e-12);
  EXPECT_NEAR(s.e, 0.5, 1e-12);
}

TEST(Score, NegativeEsClampsToZeroE) {
  const std::vector<Weight> loads{10, 10};
  const PartitionScore s =
      score_partition(microseconds(100), milliseconds(1), loads);
  EXPECT_LT(s.es, 0);
  EXPECT_DOUBLE_EQ(s.e, 0);
}

TEST(Score, ImbalanceLowersEc) {
  const std::vector<Weight> skewed{30, 10, 10};
  const PartitionScore s =
      score_partition(milliseconds(2), milliseconds(1), skewed);
  EXPECT_NEAR(s.ec, (50.0 / 3) / 30.0, 1e-9);
}

class MappingSweep : public ::testing::TestWithParam<MappingKind> {};

TEST_P(MappingSweep, ProducesValidMapping) {
  const MappingKind kind = GetParam();
  const Network net = test_network(300);
  MappingOptions opts = base_opts(6);
  opts.kind = kind;

  TrafficProfile profile;
  profile.router_events.assign(static_cast<std::size_t>(net.num_routers), 1);
  for (std::size_t i = 0; i < profile.router_events.size(); i += 3) {
    profile.router_events[i] = 100;  // synthetic hot spots
  }
  const TrafficProfile* p =
      mapping_uses_profile(kind) ? &profile : nullptr;
  const Mapping m = compute_mapping(net, opts, p);

  ASSERT_EQ(static_cast<NodeId>(m.router_lp.size()), net.num_routers);
  std::set<LpId> used(m.router_lp.begin(), m.router_lp.end());
  EXPECT_EQ(used.size(), 6u) << "some engine got no routers";
  for (LpId lp : m.router_lp) {
    EXPECT_GE(lp, 0);
    EXPECT_LT(lp, 6);
  }
  EXPECT_GT(m.achieved_mll, 0);
  EXPECT_EQ(m.kind, kind);

  // achieved_mll is really the min cross-partition latency.
  SimTime mll = kSimTimeMax;
  for (const NetLink& l : net.links) {
    if (!net.is_router(l.a) || !net.is_router(l.b)) continue;
    if (m.router_lp[static_cast<std::size_t>(l.a)] !=
        m.router_lp[static_cast<std::size_t>(l.b)]) {
      mll = std::min(mll, l.latency);
    }
  }
  EXPECT_EQ(m.achieved_mll, mll);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, MappingSweep,
                         ::testing::Values(MappingKind::kTop,
                                           MappingKind::kTop2,
                                           MappingKind::kProf,
                                           MappingKind::kProf2,
                                           MappingKind::kHTop,
                                           MappingKind::kHProf,
                                           MappingKind::kGreedy),
                         [](const auto& info) {
                           return mapping_kind_name(info.param);
                         });

TEST(GraphPrep, PlaceBoostsAttachmentRouters) {
  const Network net = test_network(100);
  const NodeId host = net.num_routers;
  const NodeId attach =
      net.nodes[static_cast<std::size_t>(host)].attach_router;
  const auto base = top_vertex_weights(net);
  const std::vector<NodeId> placement{host, host};  // duplicates allowed
  const auto w = place_vertex_weights(net, placement);
  // Two boosts of the 100 Mbps access link = +200.
  EXPECT_EQ(w[static_cast<std::size_t>(attach)],
            base[static_cast<std::size_t>(attach)] + 200 * 20);
  // Other routers untouched.
  for (NodeId r = 0; r < net.num_routers; ++r) {
    if (r != attach) {
      EXPECT_EQ(w[static_cast<std::size_t>(r)],
                base[static_cast<std::size_t>(r)]);
    }
  }
}

TEST(Mapping, PlaceProducesValidMapping) {
  const Network net = test_network(300);
  MappingOptions opts = base_opts(6);
  opts.kind = MappingKind::kPlace;
  std::vector<NodeId> placement;
  for (NodeId h = net.num_routers;
       h < static_cast<NodeId>(net.nodes.size()); h += 2) {
    placement.push_back(h);
  }
  const Mapping m = compute_mapping(net, opts, nullptr, placement);
  std::set<LpId> used(m.router_lp.begin(), m.router_lp.end());
  EXPECT_EQ(used.size(), 6u);
  EXPECT_STREQ(mapping_kind_name(m.kind), "PLACE");
}

TEST(Hierarchical, AchievedMllAtLeastTmll) {
  const Network net = test_network(500);
  MappingOptions opts = base_opts(8);
  opts.kind = MappingKind::kHTop;
  const Mapping m = compute_mapping(net, opts, nullptr);
  EXPECT_GT(m.tmll, 0);
  EXPECT_GE(m.achieved_mll, m.tmll)
      << "contraction must guarantee the worst-case MLL";
  // And the threshold itself exceeds the synchronization cost.
  EXPECT_GT(m.tmll, opts.cluster.sync_cost_time(8));
}

TEST(Hierarchical, BeatsFlatOnEfficiencyScore) {
  const Network net = test_network(500);
  MappingOptions opts = base_opts(8);

  opts.kind = MappingKind::kTop;
  const Mapping flat = compute_mapping(net, opts, nullptr);
  opts.kind = MappingKind::kHTop;
  const Mapping hier = compute_mapping(net, opts, nullptr);

  const SimTime sync = opts.cluster.sync_cost_time(8);
  // Es of the hierarchical mapping must be positive by construction; the
  // flat mapping typically cuts a short link.
  EXPECT_GT(hier.achieved_mll, sync);
  EXPECT_GE(hier.predicted_efficiency, flat.predicted_efficiency);
}

TEST(Hierarchical, SweepExploresThresholds) {
  const Network net = test_network(500);
  std::vector<std::int64_t> lats;
  MappingOptions opts = base_opts(8);
  Graph g = prepare_graph(net, MappingKind::kTop, nullptr, opts, &lats);
  const auto r = hierarchical_partition(g, lats, opts);
  ASSERT_TRUE(r.has_value());
  EXPECT_GT(r->candidates_tried, 1);
  EXPECT_GT(r->score.e, 0);
}

TEST(Hierarchical, FallsBackWhenTooFewClusters) {
  // A 4-vertex graph cannot produce 8 clusters above any threshold once
  // contraction merges everything; expect nullopt and flat fallback in
  // compute_mapping.
  GraphBuilder b(4);
  b.add_edge(0, 1, 1);
  b.add_edge(1, 2, 1);
  b.add_edge(2, 3, 1);
  Graph g = b.build();
  const std::vector<std::int64_t> lats{microseconds(20), microseconds(20),
                                       microseconds(20)};
  MappingOptions opts = base_opts(8);
  const auto r = hierarchical_partition(g, lats, opts);
  EXPECT_FALSE(r.has_value());
}

TEST(Mapping, DeterministicForSeed) {
  const Network net = test_network(300);
  MappingOptions opts = base_opts(5);
  opts.kind = MappingKind::kHTop;
  const Mapping a = compute_mapping(net, opts, nullptr);
  const Mapping b = compute_mapping(net, opts, nullptr);
  EXPECT_EQ(a.router_lp, b.router_lp);
  EXPECT_EQ(a.tmll, b.tmll);
}

TEST(Mapping, SingleEngine) {
  const Network net = test_network(100);
  MappingOptions opts = base_opts(1);
  opts.kind = MappingKind::kTop;
  const Mapping m = compute_mapping(net, opts, nullptr);
  for (LpId lp : m.router_lp) EXPECT_EQ(lp, 0);
  EXPECT_EQ(m.edge_cut, 0);
}

/// A hand-built line network: `routers` routers chained with 1 ms links,
/// one host on router 0 (validate() requires every host attached).
Network tiny_line_network(std::int32_t routers) {
  Network net;
  net.num_routers = routers;
  net.nodes.assign(static_cast<std::size_t>(routers), NetNode{});
  for (std::int32_t r = 0; r + 1 < routers; ++r) {
    NetLink l;
    l.a = r;
    l.b = r + 1;
    l.latency = milliseconds(1);
    l.bandwidth_bps = 1e9;
    net.links.push_back(l);
  }
  NetNode host;
  host.kind = NodeKind::kHost;
  host.attach_router = 0;
  net.nodes.push_back(host);
  NetLink access;
  access.a = static_cast<NodeId>(net.nodes.size()) - 1;
  access.b = 0;
  access.latency = microseconds(10);
  access.bandwidth_bps = 1e9;
  net.links.push_back(access);
  net.build_adjacency();
  EXPECT_EQ(net.validate(), "");
  return net;
}

// ---- hierarchical Tmll sweep edge cases -----------------------------------

TEST(Hierarchical, MoreEnginesThanVertices) {
  // 4 routers cannot fill 8 engines: the sweep must not crash or emit
  // out-of-range LPs; every engine id stays in [0, num_engines) and every
  // router is assigned somewhere.
  const Network net = tiny_line_network(4);
  MappingOptions opts = base_opts(8);
  opts.kind = MappingKind::kHTop;
  const Mapping m = compute_mapping(net, opts, nullptr);
  ASSERT_EQ(static_cast<NodeId>(m.router_lp.size()), net.num_routers);
  for (LpId lp : m.router_lp) {
    EXPECT_GE(lp, 0);
    EXPECT_LT(lp, opts.num_engines);
  }
}

TEST(Hierarchical, ZeroTrafficProfile) {
  // A PROF profile from a run that processed nothing: every router weight
  // floors at +1, so HPROF must still produce a balanced, valid mapping
  // rather than dividing by a zero total weight.
  const Network net = test_network(200);
  TrafficProfile profile;
  profile.router_events.assign(static_cast<std::size_t>(net.num_routers), 0);
  MappingOptions opts = base_opts(4);
  opts.kind = MappingKind::kHProf;
  const Mapping m = compute_mapping(net, opts, &profile);
  ASSERT_EQ(static_cast<NodeId>(m.router_lp.size()), net.num_routers);
  std::set<LpId> used(m.router_lp.begin(), m.router_lp.end());
  EXPECT_GT(used.size(), 1u) << "all-equal weights must still spread load";
  for (LpId lp : m.router_lp) {
    EXPECT_GE(lp, 0);
    EXPECT_LT(lp, opts.num_engines);
  }
}

TEST(Hierarchical, StepLargerThanMax) {
  // tmll_step > tmll_max leaves the sweep zero candidate thresholds; the
  // mapping must fall back (flat refinement) instead of crashing or
  // returning an empty assignment.
  const Network net = test_network(300);
  MappingOptions opts = base_opts(8);
  opts.kind = MappingKind::kHTop;
  opts.tmll_step = milliseconds(50);
  opts.tmll_max = milliseconds(20);
  const Mapping m = compute_mapping(net, opts, nullptr);
  ASSERT_EQ(static_cast<NodeId>(m.router_lp.size()), net.num_routers);
  for (LpId lp : m.router_lp) {
    EXPECT_GE(lp, 0);
    EXPECT_LT(lp, opts.num_engines);
  }
}

// ---- pruned sweep vs the full sweep ---------------------------------------

/// The Tmll sweep without the score bound: every threshold is contracted,
/// partitioned and scored, the first strictly best candidate wins. Written
/// only with the public partition primitives, as the reference the pruned
/// hierarchical_partition must reproduce exactly.
std::optional<HierarchicalResult> full_sweep(
    const Graph& g, std::span<const std::int64_t> lats,
    const MappingOptions& opts) {
  const SimTime sync = opts.cluster.sync_cost_time(opts.num_engines);
  std::vector<EdgeId> order(static_cast<std::size_t>(g.num_edges()));
  std::iota(order.begin(), order.end(), EdgeId{0});
  std::sort(order.begin(), order.end(), [&](EdgeId a, EdgeId b) {
    return lats[static_cast<std::size_t>(a)] <
           lats[static_cast<std::size_t>(b)];
  });
  UnionFind uf(g.num_vertices());
  std::size_t cursor = 0;
  std::optional<HierarchicalResult> best;
  std::int32_t tried = 0;
  for (SimTime tmll = (sync / opts.tmll_step + 1) * opts.tmll_step;
       tmll <= opts.tmll_max; tmll += opts.tmll_step) {
    for (; cursor < order.size() &&
           lats[static_cast<std::size_t>(order[cursor])] < tmll;
         ++cursor) {
      uf.unite(g.edge_u(order[cursor]), g.edge_v(order[cursor]));
    }
    if (uf.num_sets() < opts.num_engines) break;
    const std::vector<VertexId> cluster = uf.compress();
    std::vector<EdgeId> origin;
    const Graph dumped = contract(g, cluster, uf.num_sets(), lats, &origin);
    std::vector<std::int64_t> dlat;
    for (const EdgeId e : origin) {
      dlat.push_back(lats[static_cast<std::size_t>(e)]);
    }
    PartitionOptions popt;
    popt.num_parts = opts.num_engines;
    popt.imbalance_tolerance = opts.imbalance_tolerance;
    popt.seed = opts.seed;
    const PartitionResult pr = partition_graph(dumped, popt);
    ++tried;
    SimTime mll = min_cut_edge_aux(dumped, pr.part, dlat);
    if (mll == std::numeric_limits<std::int64_t>::max()) mll = opts.tmll_max;
    const PartitionScore score = score_partition(mll, sync, pr.part_weights);
    if (best && !(score.e > best->score.e)) continue;
    HierarchicalResult r;
    for (const VertexId c : cluster) {
      r.part.push_back(pr.part[static_cast<std::size_t>(c)]);
    }
    r.tmll = tmll;
    r.achieved_mll = mll;
    r.score = score;
    r.edge_cut = pr.edge_cut;
    r.balance = pr.balance(dumped.total_vertex_weight());
    best = std::move(r);
  }
  if (best) best->candidates_tried = tried;
  return best;
}

enum class SweepGraph { kBriteTop, kBriteProf, kMaBrite };

Graph sweep_graph(SweepGraph kind, std::uint64_t seed,
                  const MappingOptions& opts,
                  std::vector<std::int64_t>* lats) {
  if (kind == SweepGraph::kMaBrite) {
    MaBriteOptions mo;
    mo.num_as = 8;
    mo.routers_per_as = 15;
    mo.num_hosts = 30;
    mo.seed = seed;
    return prepare_graph(generate_multi_as(mo), MappingKind::kHTop, nullptr,
                         opts, lats);
  }
  const Network net = test_network(120, seed);
  if (kind == SweepGraph::kBriteTop) {
    return prepare_graph(net, MappingKind::kHTop, nullptr, opts, lats);
  }
  // PROF-style weights: a skewed, seeded event profile with hot spots.
  TrafficProfile profile;
  Rng rng(seed);
  for (NodeId r = 0; r < net.num_routers; ++r) {
    profile.router_events.push_back(
        rng.uniform(8) == 0 ? 1000 + rng.uniform(50000) : rng.uniform(200));
  }
  return prepare_graph(net, MappingKind::kHProf, &profile, opts, lats);
}

class PrunedSweep : public ::testing::TestWithParam<SweepGraph> {};

TEST_P(PrunedSweep, EqualsFullSweep) {
  std::int32_t pruned = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (const std::int32_t engines : {4, 8, 24}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << " engines " << engines);
      MappingOptions opts = base_opts(engines);
      opts.seed = seed;
      std::vector<std::int64_t> lats;
      const Graph g = sweep_graph(GetParam(), seed, opts, &lats);
      const auto want = full_sweep(g, lats, opts);
      const auto got = hierarchical_partition(g, lats, opts);
      ASSERT_EQ(got.has_value(), want.has_value());
      if (!want) continue;
      EXPECT_EQ(got->part, want->part);
      EXPECT_EQ(got->tmll, want->tmll);
      EXPECT_EQ(got->achieved_mll, want->achieved_mll);
      EXPECT_EQ(got->score.es, want->score.es);
      EXPECT_EQ(got->score.ec, want->score.ec);
      EXPECT_EQ(got->score.e, want->score.e);
      EXPECT_EQ(got->edge_cut, want->edge_cut);
      EXPECT_EQ(got->balance, want->balance);
      // Every threshold the full sweep partitions is either partitioned or
      // counted as pruned.
      EXPECT_EQ(got->candidates_tried + got->candidates_pruned,
                want->candidates_tried);
      pruned += got->candidates_pruned;
    }
  }
  EXPECT_GT(pruned, 0) << "the bound never pruned: the test shows nothing";
}

INSTANTIATE_TEST_SUITE_P(Graphs, PrunedSweep,
                         ::testing::Values(SweepGraph::kBriteTop,
                                           SweepGraph::kBriteProf,
                                           SweepGraph::kMaBrite),
                         [](const auto& info) {
                           switch (info.param) {
                             case SweepGraph::kBriteTop:
                               return "BriteTop";
                             case SweepGraph::kBriteProf:
                               return "BriteProf";
                             case SweepGraph::kMaBrite:
                               return "MaBrite";
                           }
                           return "";
                         });

}  // namespace
}  // namespace massf
