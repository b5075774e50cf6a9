// Parallel routing-table build: OspfDomain::add_destinations computes the
// new trees on worker threads. Every table it builds must equal the one
// per-destination add_destination builds, at any worker count, and stay
// equal through incremental reconvergence afterwards (the trees share the
// Dijkstra scratch refactor with recompute()).
#include <gtest/gtest.h>

#include <numeric>
#include <optional>
#include <set>

#include "routing/forwarding.hpp"
#include "routing/ospf.hpp"
#include "topology/brite.hpp"
#include "topology/mabrite.hpp"
#include "util/rng.hpp"

namespace massf {
namespace {

/// One routing plane as a set of OSPF domains, described so it can be
/// built several ways: per domain, its members and the destinations in
/// registration order (duplicates allowed).
struct PlaneSpec {
  std::vector<std::vector<NodeId>> members;
  std::vector<std::vector<NodeId>> dests;
  bool use_inter_as_links = true;
  bool keep_distances = true;
};

/// Builds the plane with `down` excluded from the start. `workers` nullopt
/// registers destinations one add_destination at a time (the reference);
/// otherwise one add_destinations call per domain with that many workers.
std::vector<OspfDomain> build(const Network& net, const PlaneSpec& spec,
                              std::span<const LinkId> down,
                              std::optional<std::size_t> workers) {
  std::vector<OspfDomain> plane;
  for (std::size_t d = 0; d < spec.members.size(); ++d) {
    OspfDomain& dom = plane.emplace_back(net, spec.members[d],
                                         spec.use_inter_as_links,
                                         spec.keep_distances);
    for (const LinkId l : down) dom.set_link_excluded(l, true);
    if (workers) {
      dom.add_destinations(net, spec.dests[d], *workers);
    } else {
      for (const NodeId dest : spec.dests[d]) dom.add_destination(net, dest);
    }
  }
  return plane;
}

void expect_same(const PlaneSpec& spec, const std::vector<OspfDomain>& want,
                 const std::vector<OspfDomain>& got) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t d = 0; d < want.size(); ++d) {
    ASSERT_EQ(got[d].num_destinations(), want[d].num_destinations());
    for (const NodeId dest : spec.dests[d]) {
      ASSERT_TRUE(got[d].has_destination(dest));
      for (const NodeId from : spec.members[d]) {
        ASSERT_EQ(got[d].next_link(from, dest), want[d].next_link(from, dest))
            << "domain " << d << " from " << from << " to " << dest;
        if (spec.keep_distances) {
          ASSERT_EQ(got[d].distance(from, dest), want[d].distance(from, dest))
              << "domain " << d << " from " << from << " to " << dest;
        }
      }
    }
  }
}

/// Links with both endpoints in one domain of `spec`.
std::vector<LinkId> domain_links(const Network& net, const PlaneSpec& spec) {
  std::vector<std::int32_t> domain_of(net.nodes.size(), -1);
  for (std::size_t d = 0; d < spec.members.size(); ++d) {
    for (const NodeId r : spec.members[d]) {
      domain_of[static_cast<std::size_t>(r)] = static_cast<std::int32_t>(d);
    }
  }
  std::vector<LinkId> out;
  for (LinkId l = 0; l < static_cast<LinkId>(net.links.size()); ++l) {
    const NetLink& link = net.links[static_cast<std::size_t>(l)];
    const std::int32_t da = domain_of[static_cast<std::size_t>(link.a)];
    if (da >= 0 && da == domain_of[static_cast<std::size_t>(link.b)] &&
        (spec.use_inter_as_links || !link.inter_as)) {
      out.push_back(l);
    }
  }
  return out;
}

/// The plane-building differential: workers 1, 2, 3 and 8 against the
/// reference, then a seeded flap sequence through recompute() applied to
/// every plane, compared after each batch.
void check_plane(const Network& net, const PlaneSpec& spec,
                 std::uint64_t seed) {
  const std::vector<LinkId> links = domain_links(net, spec);
  ASSERT_GT(links.size(), 8u);
  Rng rng(seed);
  std::set<LinkId> down;
  while (down.size() < 4) {
    down.insert(links[static_cast<std::size_t>(rng.uniform(links.size()))]);
  }
  const std::vector<LinkId> initial(down.begin(), down.end());

  std::vector<OspfDomain> want = build(net, spec, initial, std::nullopt);
  std::vector<std::vector<OspfDomain>> planes;
  for (const std::size_t workers : {1, 2, 3, 8}) {
    SCOPED_TRACE(::testing::Message() << workers << " workers");
    planes.push_back(build(net, spec, initial, workers));
    expect_same(spec, want, planes.back());
  }

  for (int batch = 0; batch < 12; ++batch) {
    const auto toggles = 1 + rng.uniform(3);
    for (std::uint64_t i = 0; i < toggles; ++i) {
      const LinkId l =
          links[static_cast<std::size_t>(rng.uniform(links.size()))];
      const bool exclude = down.insert(l).second;
      if (!exclude) down.erase(l);
      for (OspfDomain& dom : want) dom.set_link_excluded(l, exclude);
      for (auto& plane : planes) {
        for (OspfDomain& dom : plane) dom.set_link_excluded(l, exclude);
      }
    }
    for (OspfDomain& dom : want) dom.recompute(net);
    for (auto& plane : planes) {
      for (OspfDomain& dom : plane) dom.recompute(net);
      SCOPED_TRACE(::testing::Message() << "after flap batch " << batch);
      expect_same(spec, want, plane);
    }
  }
}

Network flat_network() {
  BriteOptions o;
  o.num_routers = 300;
  o.num_hosts = 30;
  o.seed = 17;
  return generate_flat(o);
}

/// ~150 destinations drawn with replacement, so some repeat.
PlaneSpec flat_spec(const Network& net, bool keep_distances) {
  PlaneSpec spec;
  spec.keep_distances = keep_distances;
  spec.members.emplace_back(static_cast<std::size_t>(net.num_routers));
  std::iota(spec.members[0].begin(), spec.members[0].end(), NodeId{0});
  Rng rng(5);
  spec.dests.emplace_back();
  for (int i = 0; i < 150; ++i) {
    spec.dests[0].push_back(static_cast<NodeId>(
        rng.uniform(static_cast<std::uint64_t>(net.num_routers))));
  }
  spec.dests[0].push_back(spec.dests[0].front());
  return spec;
}

TEST(OspfParallelBuild, FlatBriteWithoutDistances) {
  const Network net = flat_network();
  const PlaneSpec spec = flat_spec(net, /*keep_distances=*/false);
  EXPECT_LT(std::set<NodeId>(spec.dests[0].begin(), spec.dests[0].end())
                .size(),
            spec.dests[0].size())
      << "the destination list must contain duplicates";
  check_plane(net, spec, 1);
}

TEST(OspfParallelBuild, FlatBriteWithDistances) {
  const Network net = flat_network();
  check_plane(net, flat_spec(net, /*keep_distances=*/true), 2);
}

TEST(OspfParallelBuild, MultiAsDomains) {
  MaBriteOptions o;
  o.num_as = 6;
  o.routers_per_as = 40;
  o.num_hosts = 40;
  o.seed = 8;
  const Network net = generate_multi_as(o);
  PlaneSpec spec;
  spec.use_inter_as_links = false;
  Rng rng(9);
  for (const AsInfo& info : net.as_info) {
    auto& members = spec.members.emplace_back(
        static_cast<std::size_t>(info.num_routers));
    std::iota(members.begin(), members.end(), info.first_router);
    auto& dests = spec.dests.emplace_back();
    for (int i = 0; i < 30; ++i) {
      dests.push_back(info.first_router +
                      static_cast<NodeId>(rng.uniform(
                          static_cast<std::uint64_t>(info.num_routers))));
    }
  }
  check_plane(net, spec, 3);
}

// The forwarding plane's builders go through add_destinations with the
// default worker count; their tables must equal per-destination builds.
TEST(OspfParallelBuild, ForwardingPlaneBuildsMatchReference) {
  const Network net = flat_network();
  // Enough destinations that the default splits them across workers on a
  // multi-core host.
  PlaneSpec spec = flat_spec(net, /*keep_distances=*/false);
  spec.dests[0].resize(static_cast<std::size_t>(net.num_routers));
  std::iota(spec.dests[0].begin(), spec.dests[0].end(), NodeId{0});
  const std::vector<LinkId> down = {domain_links(net, spec)[3]};
  const auto want = build(net, spec, down, std::nullopt);
  const ForwardingPlane fp =
      ForwardingPlane::build_flat(net, spec.dests[0], down);
  for (const NodeId dest : spec.dests[0]) {
    for (NodeId from = 0; from < net.num_routers; ++from) {
      ASSERT_EQ(fp.next_link(from, dest), want[0].next_link(from, dest));
    }
  }
}

}  // namespace
}  // namespace massf
