#include <gtest/gtest.h>

#include <numeric>
#include <queue>
#include <random>
#include <set>
#include <utility>

#include "routing/bgp.hpp"
#include "routing/forwarding.hpp"
#include "routing/ospf.hpp"
#include "topology/brite.hpp"
#include "topology/mabrite.hpp"
#include "util/error.hpp"

namespace massf {
namespace {

// A hand-built 4-router line with one host at each end:
//   h4 - r0 --1ms-- r1 --2ms-- r2 --1ms-- r3 - h5
Network line_network() {
  Network net;
  for (int i = 0; i < 4; ++i) {
    NetNode r;
    r.kind = NodeKind::kRouter;
    net.nodes.push_back(r);
  }
  net.num_routers = 4;
  for (int i = 0; i < 2; ++i) {
    NetNode h;
    h.kind = NodeKind::kHost;
    h.attach_router = i == 0 ? 0 : 3;
    net.nodes.push_back(h);
  }
  const auto link = [&](NodeId a, NodeId b, SimTime lat) {
    NetLink l;
    l.a = a;
    l.b = b;
    l.latency = lat;
    l.bandwidth_bps = 1e9;
    net.links.push_back(l);
  };
  link(0, 1, milliseconds(1));
  link(1, 2, milliseconds(2));
  link(2, 3, milliseconds(1));
  link(0, 4, microseconds(10));
  link(3, 5, microseconds(10));
  net.build_adjacency();
  return net;
}

TEST(Ospf, LineNextHops) {
  const Network net = line_network();
  std::vector<NodeId> members{0, 1, 2, 3};
  OspfDomain ospf(net, members, /*use_inter_as_links=*/true);
  ospf.add_destination(net, 3);
  EXPECT_EQ(ospf.next_hop(net, 0, 3), 1);
  EXPECT_EQ(ospf.next_hop(net, 1, 3), 2);
  EXPECT_EQ(ospf.next_hop(net, 2, 3), 3);
  EXPECT_EQ(ospf.next_link(net.num_routers - 1, 3), kInvalidLink);
  EXPECT_EQ(ospf.distance(0, 3), milliseconds(4));
  EXPECT_EQ(ospf.distance(3, 3), 0);
}

TEST(Ospf, PrefersShorterLatencyPath) {
  // Triangle: 0-1 direct 10ms, 0-2-1 via 1ms+1ms.
  Network net;
  for (int i = 0; i < 3; ++i) {
    NetNode r;
    r.kind = NodeKind::kRouter;
    net.nodes.push_back(r);
  }
  net.num_routers = 3;
  const auto link = [&](NodeId a, NodeId b, SimTime lat) {
    NetLink l;
    l.a = a;
    l.b = b;
    l.latency = lat;
    l.bandwidth_bps = 1e9;
    net.links.push_back(l);
  };
  link(0, 1, milliseconds(10));
  link(0, 2, milliseconds(1));
  link(2, 1, milliseconds(1));
  net.build_adjacency();

  std::vector<NodeId> members{0, 1, 2};
  OspfDomain ospf(net, members, true);
  ospf.add_destination(net, 1);
  EXPECT_EQ(ospf.next_hop(net, 0, 1), 2);
  EXPECT_EQ(ospf.distance(0, 1), milliseconds(2));
}

// Brute-force Dijkstra for cross-checking on generated networks.
std::vector<std::int64_t> brute_distances(const Network& net, NodeId dest) {
  std::vector<std::int64_t> dist(net.nodes.size(), -1);
  using Q = std::pair<std::int64_t, NodeId>;
  std::priority_queue<Q, std::vector<Q>, std::greater<>> pq;
  dist[static_cast<std::size_t>(dest)] = 0;
  pq.push({0, dest});
  while (!pq.empty()) {
    auto [d, v] = pq.top();
    pq.pop();
    if (d != dist[static_cast<std::size_t>(v)]) continue;
    for (const auto& inc : net.incident(v)) {
      if (!net.is_router(inc.peer)) continue;
      const std::int64_t nd =
          d + net.links[static_cast<std::size_t>(inc.link)].latency;
      auto& cur = dist[static_cast<std::size_t>(inc.peer)];
      if (cur < 0 || nd < cur) {
        cur = nd;
        pq.push({nd, inc.peer});
      }
    }
  }
  return dist;
}

TEST(Ospf, MatchesBruteForceOnGeneratedNetwork) {
  BriteOptions o;
  o.num_routers = 200;
  o.num_hosts = 10;
  o.seed = 3;
  const Network net = generate_flat(o);
  std::vector<NodeId> members(static_cast<std::size_t>(net.num_routers));
  std::iota(members.begin(), members.end(), NodeId{0});
  OspfDomain ospf(net, members, true);
  for (NodeId dest : {NodeId{0}, NodeId{57}, NodeId{123}}) {
    ospf.add_destination(net, dest);
    const auto brute = brute_distances(net, dest);
    for (NodeId r = 0; r < net.num_routers; ++r) {
      EXPECT_EQ(ospf.distance(r, dest), brute[static_cast<std::size_t>(r)]);
    }
  }
}

TEST(Ospf, FollowingNextHopsReachesDest) {
  BriteOptions o;
  o.num_routers = 150;
  o.num_hosts = 10;
  o.seed = 4;
  const Network net = generate_flat(o);
  std::vector<NodeId> members(static_cast<std::size_t>(net.num_routers));
  std::iota(members.begin(), members.end(), NodeId{0});
  OspfDomain ospf(net, members, true);
  const NodeId dest = 77;
  ospf.add_destination(net, dest);
  for (NodeId start : {NodeId{0}, NodeId{50}, NodeId{149}}) {
    NodeId cur = start;
    int hops = 0;
    while (cur != dest) {
      cur = ospf.next_hop(net, cur, dest);
      ASSERT_NE(cur, kInvalidNode);
      ASSERT_LT(++hops, net.num_routers);
    }
  }
}

TEST(Ospf, LinkExclusionReroutesAfterRecompute) {
  // Triangle: direct 0-1 is cheapest until it is withdrawn.
  Network net;
  for (int i = 0; i < 3; ++i) {
    NetNode r;
    r.kind = NodeKind::kRouter;
    net.nodes.push_back(r);
  }
  net.num_routers = 3;
  const auto link = [&](NodeId a, NodeId b, SimTime lat) {
    NetLink l;
    l.a = a;
    l.b = b;
    l.latency = lat;
    l.bandwidth_bps = 1e9;
    net.links.push_back(l);
  };
  link(0, 1, milliseconds(1));   // link 0: direct
  link(0, 2, milliseconds(2));   // link 1
  link(2, 1, milliseconds(2));   // link 2
  net.build_adjacency();

  std::vector<NodeId> members{0, 1, 2};
  OspfDomain ospf(net, members, true);
  ospf.add_destination(net, 1);
  EXPECT_EQ(ospf.next_hop(net, 0, 1), 1);

  ospf.set_link_excluded(0, true);
  ospf.recompute(net);
  EXPECT_EQ(ospf.next_hop(net, 0, 1), 2);
  EXPECT_EQ(ospf.distance(0, 1), milliseconds(4));

  ospf.set_link_excluded(0, false);
  ospf.recompute(net);
  EXPECT_EQ(ospf.next_hop(net, 0, 1), 1);
}

TEST(Ospf, ExclusionCanDisconnect) {
  Network net = line_network();
  std::vector<NodeId> members{0, 1, 2, 3};
  OspfDomain ospf(net, members, true);
  ospf.add_destination(net, 3);
  ospf.set_link_excluded(1, true);  // the only 1-2 link
  ospf.recompute(net);
  EXPECT_EQ(ospf.next_link(0, 3), kInvalidLink);
  EXPECT_EQ(ospf.distance(0, 3), -1);
}

TEST(Ospf, NonPositiveLatencyIsAConfigError) {
  // Programmatic networks skip Network::validate; the domain itself must
  // refuse arcs that would break shortest-path trees.
  Network net = line_network();
  net.links[1].latency = 0;
  std::vector<NodeId> members{0, 1, 2, 3};
  try {
    OspfDomain ospf(net, members, true);
    FAIL() << "zero-latency link accepted";
  } catch (const EngineError& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kConfig);
  }
  net.links[1].latency = -milliseconds(1);
  EXPECT_THROW(OspfDomain(net, members, true), EngineError);
  // A non-member link may have any latency: only domain arcs matter.
  net.links[1].latency = milliseconds(2);
  net.links[3].latency = 0;  // host access link, not a domain arc
  EXPECT_NO_THROW(OspfDomain(net, members, true));
}

TEST(Ospf, ExcludingUnknownLinkIsAConfigError) {
  const Network net = line_network();
  std::vector<NodeId> members{0, 1, 2, 3};
  OspfDomain ospf(net, members, true);
  for (const LinkId bad :
       {LinkId{-1}, static_cast<LinkId>(net.links.size())}) {
    try {
      ospf.set_link_excluded(bad, true);
      FAIL() << "link " << bad << " accepted";
    } catch (const EngineError& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kConfig);
    }
  }
}

// ---- Incremental reconvergence: differential against fresh builds ------

TEST(OspfIncremental, UnaffectedTreesAndToggledBackLinksDoNoWork) {
  // Triangle: 0-1 direct 10ms (link 0), 0-2 1ms (link 1), 2-1 1ms (link 2).
  Network net;
  for (int i = 0; i < 3; ++i) {
    NetNode r;
    r.kind = NodeKind::kRouter;
    net.nodes.push_back(r);
  }
  net.num_routers = 3;
  const auto link = [&](NodeId a, NodeId b, SimTime lat) {
    NetLink l;
    l.a = a;
    l.b = b;
    l.latency = lat;
    l.bandwidth_bps = 1e9;
    net.links.push_back(l);
  };
  link(0, 1, milliseconds(10));
  link(0, 2, milliseconds(1));
  link(2, 1, milliseconds(1));
  net.build_adjacency();
  std::vector<NodeId> members{0, 1, 2};
  OspfDomain ospf(net, members, true);
  ospf.add_destination(net, 1);
  ospf.add_destination(net, 0);

  // Down and up again before the recompute: nothing to update.
  ospf.set_link_excluded(1, true);
  ospf.set_link_excluded(1, false);
  EXPECT_EQ(ospf.recompute(net).trees_updated, 0u);
  // The 10ms link is on no tree, and restoring it improves none.
  ospf.set_link_excluded(0, true);
  EXPECT_EQ(ospf.recompute(net).trees_updated, 0u);
  ospf.set_link_excluded(0, false);
  EXPECT_EQ(ospf.recompute(net).trees_updated, 0u);
  // 0-2 carries r0 toward r1 (subtree {r0}) and r2 toward r0 (subtree
  // {r2, r1}).
  ospf.set_link_excluded(1, true);
  const OspfDomain::UpdateStats down = ospf.recompute(net);
  EXPECT_EQ(down.trees_updated, 2u);
  EXPECT_EQ(down.routers_resettled, 3u);
  EXPECT_EQ(ospf.next_link(0, 1), 0);
  EXPECT_EQ(ospf.distance(0, 1), milliseconds(10));
  EXPECT_EQ(ospf.distance(2, 0), milliseconds(11));
}

// Rounds every router-router latency to 1, 2 or 3 ms so equal-cost paths,
// and with them the lowest-link-id tie-break, are common.
void quantize_latencies(Network& net) {
  for (NetLink& l : net.links) {
    if (net.is_router(l.a) && net.is_router(l.b)) {
      l.latency = milliseconds(1 + l.latency % 3);
    }
  }
}

using Batch = std::vector<std::pair<LinkId, bool>>;  // (link, up)

std::vector<LinkId> router_links_of(const Network& net, NodeId r,
                                    const std::vector<LinkId>& candidates) {
  std::vector<LinkId> out;
  for (const auto& inc : net.incident(r)) {
    if (std::find(candidates.begin(), candidates.end(), inc.link) !=
        candidates.end()) {
      out.push_back(inc.link);
    }
  }
  return out;
}

// A change script over `candidates`: the links of destination `dest` one at
// a time, a batch that cuts `cut` off entirely and one that restores it, a
// link toggled back within a batch, then `random` seeded batches of one to
// three changes (restores once several links are down).
std::vector<Batch> change_script(const Network& net,
                                 const std::vector<LinkId>& candidates,
                                 NodeId dest, NodeId cut, std::uint64_t seed,
                                 int random) {
  std::vector<Batch> script;
  const std::vector<LinkId> at_dest = router_links_of(net, dest, candidates);
  for (const LinkId l : at_dest) script.push_back({{l, false}});
  Batch restore;
  for (const LinkId l : at_dest) restore.push_back({l, true});
  script.push_back(restore);

  const std::vector<LinkId> at_cut = router_links_of(net, cut, candidates);
  Batch isolate, rejoin;
  for (const LinkId l : at_cut) {
    isolate.push_back({l, false});
    rejoin.push_back({l, true});
  }
  script.push_back(isolate);
  script.push_back(rejoin);

  script.push_back({{at_dest[0], false}, {at_dest[0], true}});
  script.push_back({{at_cut[0], false}, {at_dest[0], false},
                    {at_cut[0], true}});
  script.push_back({{at_dest[0], true}});

  std::mt19937_64 rng(seed);
  std::set<LinkId> down;
  for (int i = 0; i < random; ++i) {
    Batch b;
    const int size = 1 + static_cast<int>(rng() % 3);
    for (int k = 0; k < size; ++k) {
      LinkId l;
      if (down.size() >= 6) {
        auto it = down.begin();
        std::advance(it, static_cast<long>(rng() % down.size()));
        l = *it;
      } else {
        l = candidates[rng() % candidates.size()];
      }
      const bool up = down.count(l) > 0;
      b.push_back({l, up});
      if (up) {
        down.erase(l);
      } else {
        down.insert(l);
      }
      if (rng() % 8 == 0) {  // toggled back within the batch
        b.push_back({l, !up});
        if (up) {
          down.insert(l);
        } else {
          down.erase(l);
        }
      }
    }
    script.push_back(b);
  }
  return script;
}

// Applies each batch through `set_state(link, up)`, then calls
// `check(down_set)` (which reconverges and compares).
template <class SetState, class Check>
void replay(const std::vector<Batch>& script, SetState set_state,
            Check check) {
  std::set<LinkId> down;
  for (std::size_t i = 0; i < script.size(); ++i) {
    for (const auto& [l, up] : script[i]) {
      set_state(l, up);
      if (up) {
        down.erase(l);
      } else {
        down.insert(l);
      }
    }
    SCOPED_TRACE("batch " + std::to_string(i));
    check(std::vector<LinkId>(down.begin(), down.end()));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// The router with the fewest (but at least two) candidate links that is not
// in `avoid`.
NodeId cut_candidate(const Network& net, const std::vector<NodeId>& routers,
                     const std::vector<LinkId>& candidates,
                     const std::vector<NodeId>& avoid) {
  NodeId best = kInvalidNode;
  std::size_t best_deg = 0;
  for (const NodeId r : routers) {
    if (std::find(avoid.begin(), avoid.end(), r) != avoid.end()) continue;
    const std::size_t deg = router_links_of(net, r, candidates).size();
    if (deg >= 2 && (best == kInvalidNode || deg < best_deg)) {
      best = r;
      best_deg = deg;
    }
  }
  return best;
}

// Domain-level differential: every next_link (and distance, when kept)
// after each recompute() equals a domain built from scratch with the same
// exclusions.
void expect_domain_tracks_fresh_builds(const Network& net,
                                       const std::vector<NodeId>& members,
                                       bool use_inter_as_links, bool keep,
                                       std::uint64_t seed) {
  std::vector<LinkId> candidates;
  for (LinkId l = 0; l < static_cast<LinkId>(net.links.size()); ++l) {
    const NetLink& link = net.links[static_cast<std::size_t>(l)];
    const bool in_a = std::find(members.begin(), members.end(), link.a) !=
                      members.end();
    const bool in_b = std::find(members.begin(), members.end(), link.b) !=
                      members.end();
    if (in_a && in_b && (use_inter_as_links || !link.inter_as)) {
      candidates.push_back(l);
    }
  }
  std::vector<NodeId> dests;
  for (std::size_t i = 0; i < members.size(); i += 7) {
    dests.push_back(members[i]);
  }
  NodeId dest = kInvalidNode;
  for (const NodeId d : dests) {
    if (router_links_of(net, d, candidates).size() >= 2) {
      dest = d;
      break;
    }
  }
  ASSERT_NE(dest, kInvalidNode);
  const NodeId cut = cut_candidate(net, members, candidates, dests);
  ASSERT_NE(cut, kInvalidNode);

  const std::vector<LinkId> cut_links = router_links_of(net, cut, candidates);

  OspfDomain ospf(net, members, use_inter_as_links, keep);
  for (const NodeId d : dests) ospf.add_destination(net, d);
  std::uint64_t trees = 0;
  int isolations = 0;
  replay(
      change_script(net, candidates, dest, cut, seed, 60),
      [&](LinkId l, bool up) { ospf.set_link_excluded(l, !up); },
      [&](const std::vector<LinkId>& down) {
        trees += ospf.recompute(net).trees_updated;
        OspfDomain fresh(net, members, use_inter_as_links, keep);
        for (const LinkId l : down) fresh.set_link_excluded(l, true);
        for (const NodeId d : dests) fresh.add_destination(net, d);
        for (const NodeId d : dests) {
          for (const NodeId m : members) {
            ASSERT_EQ(ospf.next_link(m, d), fresh.next_link(m, d))
                << "router " << m << " toward " << d;
            if (keep) {
              ASSERT_EQ(ospf.distance(m, d), fresh.distance(m, d))
                  << "router " << m << " toward " << d;
            }
          }
        }
        const bool isolated = std::all_of(
            cut_links.begin(), cut_links.end(), [&](LinkId l) {
              return std::count(down.begin(), down.end(), l) > 0;
            });
        if (isolated) {
          ++isolations;
          for (const NodeId d : dests) {
            EXPECT_EQ(ospf.next_link(cut, d), kInvalidLink);
          }
        }
      });
  EXPECT_GT(trees, 0u);
  EXPECT_GT(isolations, 0) << "the script must cut a router off";
}

std::vector<NodeId> all_routers(const Network& net) {
  std::vector<NodeId> members(static_cast<std::size_t>(net.num_routers));
  std::iota(members.begin(), members.end(), NodeId{0});
  return members;
}

Network brite300(bool quantized) {
  BriteOptions o;
  o.num_routers = 300;
  o.num_hosts = 30;
  o.seed = 15;
  Network net = generate_flat(o);
  if (quantized) quantize_latencies(net);
  return net;
}

Network mabrite_small(bool quantized) {
  MaBriteOptions o;
  o.num_as = 12;
  o.routers_per_as = 12;
  o.num_hosts = 60;
  o.seed = 21;
  Network net = generate_multi_as(o);
  if (quantized) quantize_latencies(net);
  return net;
}

TEST(OspfIncremental, FlatBriteWithoutDistancesMatchesFreshBuilds) {
  for (const bool quantized : {false, true}) {
    SCOPED_TRACE(quantized ? "quantized latencies" : "BRITE latencies");
    const Network net = brite300(quantized);
    expect_domain_tracks_fresh_builds(net, all_routers(net), true,
                                      /*keep=*/false, 101);
  }
}

TEST(OspfIncremental, FlatBriteWithDistancesMatchesFreshBuilds) {
  for (const bool quantized : {false, true}) {
    SCOPED_TRACE(quantized ? "quantized latencies" : "BRITE latencies");
    const Network net = brite300(quantized);
    expect_domain_tracks_fresh_builds(net, all_routers(net), true,
                                      /*keep=*/true, 202);
  }
}

TEST(OspfIncremental, AsDomainWithDistancesMatchesFreshBuilds) {
  for (const bool quantized : {false, true}) {
    SCOPED_TRACE(quantized ? "quantized latencies" : "maBrite latencies");
    const Network net = mabrite_small(quantized);
    const AsInfo& info = net.as_info[0];
    std::vector<NodeId> members(static_cast<std::size_t>(info.num_routers));
    std::iota(members.begin(), members.end(), info.first_router);
    expect_domain_tracks_fresh_builds(net, members, false, /*keep=*/true,
                                      303);
  }
}

// Plane-level differential: every (router, destination) next_link after
// each reconverge() equals a plane built from scratch under the down-set.
template <class Build>
void expect_plane_tracks_fresh_builds(const Network& net, Build build,
                                      std::uint64_t seed) {
  std::vector<NodeId> dests;
  for (NodeId h = net.num_routers; h < static_cast<NodeId>(net.nodes.size());
       ++h) {
    dests.push_back(net.nodes[static_cast<std::size_t>(h)].attach_router);
  }
  std::vector<LinkId> candidates;
  for (LinkId l = 0; l < static_cast<LinkId>(net.links.size()); ++l) {
    const NetLink& link = net.links[static_cast<std::size_t>(l)];
    if (net.is_router(link.a) && net.is_router(link.b)) {
      candidates.push_back(l);
    }
  }
  NodeId dest = kInvalidNode;
  for (const NodeId d : dests) {
    if (router_links_of(net, d, candidates).size() >= 2) {
      dest = d;
      break;
    }
  }
  ASSERT_NE(dest, kInvalidNode);
  const NodeId cut =
      cut_candidate(net, all_routers(net), candidates, dests);
  ASSERT_NE(cut, kInvalidNode);
  std::vector<Batch> script =
      change_script(net, candidates, dest, cut, seed, 50);
  if (!net.as_adjacency.empty()) {
    // Every border link of one AS pair down, then back one by one.
    const AsAdjacency& pair = net.as_adjacency.front();
    Batch all_down;
    std::vector<Batch> back;
    for (const AsAdjacency& adj : net.as_adjacency) {
      if ((adj.as_a == pair.as_a && adj.as_b == pair.as_b) ||
          (adj.as_a == pair.as_b && adj.as_b == pair.as_a)) {
        all_down.push_back({adj.link, false});
        back.push_back({{adj.link, true}});
      }
    }
    script.push_back(all_down);
    script.insert(script.end(), back.begin(), back.end());
  }

  ForwardingPlane fp = build(dests, std::span<const LinkId>{});
  std::uint64_t reconverges = 0;
  replay(
      script, [&](LinkId l, bool up) { fp.set_link_state(l, up); },
      [&](const std::vector<LinkId>& down) {
        fp.reconverge();
        ++reconverges;
        const ForwardingPlane fresh = build(dests, down);
        for (NodeId r = 0; r < net.num_routers; ++r) {
          for (const NodeId d : dests) {
            ASSERT_EQ(fp.next_link(r, d), fresh.next_link(r, d))
                << "router " << r << " toward " << d;
          }
          for (NodeId h = net.num_routers;
               h < static_cast<NodeId>(net.nodes.size()); ++h) {
            ASSERT_EQ(fp.next_link(r, h), fresh.next_link(r, h))
                << "router " << r << " toward host " << h;
          }
        }
      });
  EXPECT_EQ(fp.reconverge_stats().reconverges, reconverges);
  EXPECT_GT(fp.reconverge_stats().trees_updated, 0u);
}

TEST(OspfIncremental, FlatPlaneMatchesFreshBuilds) {
  for (const bool quantized : {false, true}) {
    SCOPED_TRACE(quantized ? "quantized latencies" : "BRITE latencies");
    const Network net = brite300(quantized);
    expect_plane_tracks_fresh_builds(
        net,
        [&](std::span<const NodeId> dests, std::span<const LinkId> down) {
          return ForwardingPlane::build_flat(net, dests, down);
        },
        404);
  }
}

TEST(OspfIncremental, MultiAsPlaneMatchesFreshBuilds) {
  for (const bool quantized : {false, true}) {
    SCOPED_TRACE(quantized ? "quantized latencies" : "maBrite latencies");
    const Network net = mabrite_small(quantized);
    expect_plane_tracks_fresh_builds(
        net,
        [&](std::span<const NodeId> dests, std::span<const LinkId> down) {
          return ForwardingPlane::build_multi_as(
              net, dests, ForwardingPlane::Options{}, down);
        },
        505);
  }
}

// ---- BGP -------------------------------------------------------------

// Builds adjacency records; rel is the relationship of b from a's view.
AsAdjacency adj(AsId a, AsId b, AsRel rel_ab) {
  AsAdjacency r;
  r.as_a = a;
  r.as_b = b;
  r.rel_ab = rel_ab;
  return r;
}

TEST(Bgp, CustomerRoutePreferredOverPeerAndProvider) {
  // AS0 can reach AS3 via customer AS1, peer AS2 — must pick the customer
  // even if paths tie in length.
  //   0 -- customer: 1 -- customer: 3
  //   0 -- peer: 2 -- customer: 3
  const std::vector<AsAdjacency> adjs{
      adj(0, 1, AsRel::kCustomer),
      adj(0, 2, AsRel::kPeer),
      adj(1, 3, AsRel::kCustomer),
      adj(2, 3, AsRel::kCustomer),
  };
  BgpSolver bgp(4, adjs);
  bgp.solve();
  EXPECT_EQ(bgp.route(0, 3).next_hop_as, 1);
  EXPECT_EQ(bgp.route(0, 3).learned_from, AsRel::kCustomer);
}

TEST(Bgp, PeerRoutesNotTransitive) {
  // 0 --peer-- 1 --peer-- 2: 1 must not export 2's routes to 0.
  const std::vector<AsAdjacency> adjs{
      adj(0, 1, AsRel::kPeer),
      adj(1, 2, AsRel::kPeer),
  };
  BgpSolver bgp(3, adjs);
  bgp.solve();
  EXPECT_FALSE(bgp.reachable(0, 2));  // connectivity != reachability
  EXPECT_TRUE(bgp.reachable(0, 1));
  EXPECT_TRUE(bgp.reachable(1, 2));
}

TEST(Bgp, ProviderGivesFullTransit) {
  // 0 is customer of 1; 2 is customer of 1. 0 and 2 reach each other
  // through the shared provider.
  const std::vector<AsAdjacency> adjs{
      adj(0, 1, AsRel::kProvider),  // 1 is 0's provider
      adj(2, 1, AsRel::kProvider),
  };
  BgpSolver bgp(3, adjs);
  bgp.solve();
  EXPECT_TRUE(bgp.reachable(0, 2));
  const auto path = bgp.as_path(0, 2);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[1], 1);
  EXPECT_TRUE(bgp.path_is_valley_free(0, 2));
}

TEST(Bgp, NoValleyThroughCustomer) {
  // 1 and 2 are both providers of 0; routes between 1 and 2 must not
  // transit their customer 0.
  const std::vector<AsAdjacency> adjs{
      adj(0, 1, AsRel::kProvider),
      adj(0, 2, AsRel::kProvider),
  };
  BgpSolver bgp(3, adjs);
  bgp.solve();
  EXPECT_FALSE(bgp.reachable(1, 2));
}

TEST(Bgp, ShorterPathWinsWithinSamePreferenceClass) {
  // 0's two customers lead to 4: via 1->3->4 (len 3) or via 2->4 (len 2).
  const std::vector<AsAdjacency> adjs{
      adj(0, 1, AsRel::kCustomer), adj(0, 2, AsRel::kCustomer),
      adj(1, 3, AsRel::kCustomer), adj(3, 4, AsRel::kCustomer),
      adj(2, 4, AsRel::kCustomer),
  };
  BgpSolver bgp(5, adjs);
  bgp.solve();
  EXPECT_EQ(bgp.route(0, 4).next_hop_as, 2);
  EXPECT_EQ(bgp.route(0, 4).path_len, 2);
}

TEST(Bgp, SelfRouteTrivial) {
  BgpSolver bgp(2, std::vector<AsAdjacency>{adj(0, 1, AsRel::kPeer)});
  bgp.solve();
  EXPECT_TRUE(bgp.reachable(0, 0));
  EXPECT_EQ(bgp.as_path(0, 0), std::vector<AsId>{0});
}

TEST(Bgp, LocalPrefOrdering) {
  EXPECT_GT(local_pref_for(AsRel::kCustomer), local_pref_for(AsRel::kPeer));
  EXPECT_GT(local_pref_for(AsRel::kPeer), local_pref_for(AsRel::kProvider));
}

TEST(Bgp, GeneratedTopologyFullReachabilityAndValleyFree) {
  MaBriteOptions o;
  o.num_as = 20;
  o.routers_per_as = 5;
  o.num_hosts = 10;
  o.seed = 6;
  const Network net = generate_multi_as(o);
  BgpSolver bgp(net.num_as(), net.as_adjacency);
  bgp.solve();
  for (AsId a = 0; a < net.num_as(); ++a) {
    for (AsId b = 0; b < net.num_as(); ++b) {
      // maBrite guarantees provider paths to the core clique, which makes
      // the whole AS graph mutually reachable...
      EXPECT_TRUE(bgp.reachable(a, b)) << a << "->" << b;
      // ...and every chosen path must be valley-free.
      EXPECT_TRUE(bgp.path_is_valley_free(a, b)) << a << "->" << b;
    }
  }
}

// ---- ForwardingPlane ---------------------------------------------------

TEST(ForwardingFlat, DeliversToHost) {
  const Network net = line_network();
  const std::vector<NodeId> dests{0, 3};
  const ForwardingPlane fp = ForwardingPlane::build_flat(net, dests);

  // Walk a packet from router 0 to host 5 (attached to router 3).
  NodeId cur = 0;
  int hops = 0;
  while (true) {
    const LinkId l = fp.next_link(cur, 5);
    ASSERT_NE(l, kInvalidLink);
    const NetLink& link = net.links[static_cast<std::size_t>(l)];
    const NodeId next = link.a == cur ? link.b : link.a;
    if (next == 5) break;
    cur = next;
    ASSERT_LT(++hops, 10);
  }
  EXPECT_EQ(fp.dest_router(5), 3);
  EXPECT_TRUE(fp.reachable(0, 5));
  EXPECT_FALSE(fp.is_multi_as());
}

TEST(ForwardingFlat, ArrivedReturnsInvalid) {
  const Network net = line_network();
  const std::vector<NodeId> dests{0, 3};
  const ForwardingPlane fp = ForwardingPlane::build_flat(net, dests);
  EXPECT_EQ(fp.next_link(3, 3), kInvalidLink);
  // At the attach router of a host destination: returns the access link.
  const LinkId l = fp.next_link(3, 5);
  const NetLink& link = net.links[static_cast<std::size_t>(l)];
  EXPECT_TRUE(link.a == 5 || link.b == 5);
}

class ForwardingMultiAs : public ::testing::Test {
 protected:
  void SetUp() override {
    MaBriteOptions o;
    o.num_as = 15;
    o.routers_per_as = 8;
    o.num_hosts = 60;
    o.seed = 9;
    net_ = generate_multi_as(o);
    for (NodeId h = net_.num_routers;
         h < static_cast<NodeId>(net_.nodes.size()); ++h) {
      dests_.push_back(net_.nodes[static_cast<std::size_t>(h)].attach_router);
    }
    fp_ = std::make_unique<ForwardingPlane>(
        ForwardingPlane::build_multi_as(net_, dests_));
  }

  Network net_;
  std::vector<NodeId> dests_;
  std::unique_ptr<ForwardingPlane> fp_;
};

TEST_F(ForwardingMultiAs, HostToHostPathsTerminate) {
  const NodeId h1 = net_.num_routers + 1;
  const NodeId h2 = static_cast<NodeId>(net_.nodes.size()) - 1;
  ASSERT_TRUE(fp_->reachable(h1, h2));
  NodeId cur = net_.nodes[static_cast<std::size_t>(h1)].attach_router;
  int hops = 0;
  while (true) {
    const LinkId l = fp_->next_link(cur, h2);
    ASSERT_NE(l, kInvalidLink) << "stuck at router " << cur;
    const NetLink& link = net_.links[static_cast<std::size_t>(l)];
    const NodeId next = link.a == cur ? link.b : link.a;
    if (next == h2) break;
    ASSERT_TRUE(net_.is_router(next));
    cur = next;
    ASSERT_LT(++hops, 200) << "forwarding loop";
  }
}

TEST_F(ForwardingMultiAs, AllHostPairsDeliverable) {
  // Sample pairs; walking must terminate for every reachable pair.
  for (NodeId h1 = net_.num_routers;
       h1 < static_cast<NodeId>(net_.nodes.size()); h1 += 7) {
    for (NodeId h2 = net_.num_routers + 3;
         h2 < static_cast<NodeId>(net_.nodes.size()); h2 += 11) {
      if (h1 == h2) continue;
      if (!fp_->reachable(h1, h2)) continue;
      NodeId cur = net_.nodes[static_cast<std::size_t>(h1)].attach_router;
      int hops = 0;
      bool arrived = false;
      while (hops < 300) {
        const LinkId l = fp_->next_link(cur, h2);
        if (l == kInvalidLink) break;
        const NetLink& link = net_.links[static_cast<std::size_t>(l)];
        const NodeId next = link.a == cur ? link.b : link.a;
        ++hops;
        if (next == h2) {
          arrived = true;
          break;
        }
        cur = next;
      }
      EXPECT_TRUE(arrived) << h1 << "->" << h2;
    }
  }
}

TEST_F(ForwardingMultiAs, StubTrafficLeavesViaDefaultProvider) {
  // Find a stub AS and verify its cross-AS next hops use its default
  // (provider) egress regardless of destination.
  ASSERT_TRUE(fp_->is_multi_as());
  AsId stub = -1;
  for (AsId a = 0; a < net_.num_as(); ++a) {
    if (net_.as_info[static_cast<std::size_t>(a)].cls == AsClass::kStub) {
      stub = a;
      break;
    }
  }
  ASSERT_GE(stub, 0);
  const AsInfo& info = net_.as_info[static_cast<std::size_t>(stub)];

  // Pick two destination hosts in two different foreign ASes.
  std::vector<NodeId> foreign;
  for (NodeId h = net_.num_routers;
       h < static_cast<NodeId>(net_.nodes.size()) && foreign.size() < 2;
       ++h) {
    const AsId a = net_.nodes[static_cast<std::size_t>(h)].as_id;
    if (a != stub &&
        (foreign.empty() ||
         net_.nodes[static_cast<std::size_t>(foreign[0])].as_id != a)) {
      foreign.push_back(h);
    }
  }
  ASSERT_EQ(foreign.size(), 2u);

  // From an interior stub router, the first hop toward any foreign
  // destination must be identical (default routing).
  const NodeId r = info.first_router;
  const LinkId l1 = fp_->next_link(r, foreign[0]);
  const LinkId l2 = fp_->next_link(r, foreign[1]);
  ASSERT_NE(l1, kInvalidLink);
  EXPECT_EQ(l1, l2);
}

TEST_F(ForwardingMultiAs, BorderLinkFailureDropsThenRestores) {
  // Fail the chosen egress link of some AS pair; with no alternate link
  // for that pair, cross-AS next hops through it disappear until restore.
  // Pick an adjacency whose far side actually hosts traffic endpoints
  // (hosts live only in stub ASes).
  const AsAdjacency* chosen = nullptr;
  AsId dest_as = -1, near_as = -1;
  NodeId dest = kInvalidNode;
  for (const AsAdjacency& adj : net_.as_adjacency) {
    for (NodeId h = net_.num_routers;
         h < static_cast<NodeId>(net_.nodes.size()); ++h) {
      const AsId ha = net_.nodes[static_cast<std::size_t>(h)].as_id;
      if (ha == adj.as_a || ha == adj.as_b) {
        chosen = &adj;
        dest = h;
        dest_as = ha;
        near_as = ha == adj.as_a ? adj.as_b : adj.as_a;
        break;
      }
    }
    if (chosen != nullptr) break;
  }
  ASSERT_NE(chosen, nullptr) << "no adjacency toward a stub AS";
  const AsAdjacency& adj = *chosen;
  const NetLink& l = net_.links[static_cast<std::size_t>(adj.link)];
  // Probe from the border router on the non-destination side.
  const NodeId local_end =
      net_.nodes[static_cast<std::size_t>(l.a)].as_id == near_as ? l.a : l.b;

  // Count alternate physical links for this AS pair.
  int pair_links = 0;
  for (const AsAdjacency& other : net_.as_adjacency) {
    if ((other.as_a == adj.as_a && other.as_b == adj.as_b) ||
        (other.as_a == adj.as_b && other.as_b == adj.as_a)) {
      ++pair_links;
    }
  }

  const LinkId before = fp_->next_link(local_end, dest);
  ASSERT_NE(before, kInvalidLink);

  fp_->set_link_state(adj.link, false);
  fp_->reconverge();
  const LinkId during = fp_->next_link(local_end, dest);
  if (pair_links == 1) {
    // Depending on BGP tables the packet may still route via a *different*
    // neighbor AS; what must not happen is using the dead link.
    EXPECT_NE(during, adj.link);
  } else {
    ASSERT_NE(during, kInvalidLink);
    EXPECT_NE(during, adj.link);  // failed over to a sibling link
  }

  fp_->set_link_state(adj.link, true);
  fp_->reconverge();
  EXPECT_EQ(fp_->next_link(local_end, dest), before);
}

TEST(ForwardingMultiAsNoDefault, BgpLookupsPerDestination) {
  MaBriteOptions o;
  o.num_as = 10;
  o.routers_per_as = 6;
  o.num_hosts = 30;
  o.seed = 10;
  const Network net = generate_multi_as(o);
  std::vector<NodeId> dests;
  for (NodeId h = net.num_routers; h < static_cast<NodeId>(net.nodes.size());
       ++h) {
    dests.push_back(net.nodes[static_cast<std::size_t>(h)].attach_router);
  }
  ForwardingPlane::Options fo;
  fo.stub_default_routing = false;
  const ForwardingPlane fp = ForwardingPlane::build_multi_as(net, dests, fo);
  // Paths still terminate without default routing.
  const NodeId h1 = net.num_routers;
  const NodeId h2 = static_cast<NodeId>(net.nodes.size()) - 1;
  if (fp.reachable(h1, h2)) {
    NodeId cur = net.nodes[static_cast<std::size_t>(h1)].attach_router;
    int hops = 0;
    while (hops < 200) {
      const LinkId l = fp.next_link(cur, h2);
      ASSERT_NE(l, kInvalidLink);
      const NetLink& link = net.links[static_cast<std::size_t>(l)];
      const NodeId next = link.a == cur ? link.b : link.a;
      ++hops;
      if (next == h2) return;
      cur = next;
    }
    FAIL() << "did not arrive";
  }
}

}  // namespace
}  // namespace massf
