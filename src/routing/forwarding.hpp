// The unified router-level forwarding plane the packet simulation queries.
//
// Flat (single-AS) networks: one OSPF domain over all routers.
// Multi-AS networks: per-AS OSPF domains for intra-AS hops, a BGP policy
// solver for the AS-level next hop, deterministic egress (border link)
// selection per (AS, next-AS) pair, and — per the paper's Section 5.1.2
// step 6 — default routing in Stub ASes: stub routers forward any non-local
// destination toward the border link of their primary provider instead of
// carrying full BGP tables.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "routing/bgp.hpp"
#include "routing/ospf.hpp"
#include "topology/network.hpp"

namespace massf::ckpt {
class Reader;
class Writer;
}  // namespace massf::ckpt

namespace massf {

class ForwardingPlane {
 public:
  struct Options {
    /// Stub ASes use a default route toward their primary provider instead
    /// of per-destination BGP lookups (paper Section 5.1.2 step 6c/6d).
    bool stub_default_routing = true;
  };

  /// Flat network: OSPF shortest path everywhere. `dest_routers` are the
  /// routers that will terminate traffic (attachment points of active
  /// hosts); only those get routing tables. Links in `down` start failed:
  /// the tables are built from scratch under that down-set.
  static ForwardingPlane build_flat(const Network& net,
                                    std::span<const NodeId> dest_routers,
                                    std::span<const LinkId> down = {});

  /// Multi-AS network with BGP inter-domain routing; `down` as for
  /// build_flat.
  static ForwardingPlane build_multi_as(const Network& net,
                                        std::span<const NodeId> dest_routers,
                                        const Options& opts,
                                        std::span<const LinkId> down = {});
  static ForwardingPlane build_multi_as(const Network& net,
                                        std::span<const NodeId> dest_routers) {
    return build_multi_as(net, dest_routers, Options{});
  }

  /// The link a packet at router `from` takes toward `dest` (host or
  /// router). Returns the host access link when dest is a host attached to
  /// `from`; kInvalidLink when the packet has arrived (from == dest) or no
  /// policy-compliant route exists (caller drops the packet).
  LinkId next_link(NodeId from, NodeId dest) const;

  /// Whether policy routing admits a path (connectivity != reachability in
  /// multi-AS networks).
  bool reachable(NodeId from, NodeId dest) const;

  /// Router terminating traffic for `dest` (the host's attachment router,
  /// or the router itself).
  NodeId dest_router(NodeId dest) const;

  const BgpSolver* bgp() const { return bgp_ ? &*bgp_ : nullptr; }

  bool is_multi_as() const { return bgp_.has_value(); }

  /// Control-plane view of a link failure/restoration. Takes effect at the
  /// next reconverge(). Intra-domain links are withdrawn from their OSPF
  /// domain; border links trigger egress re-selection among the remaining
  /// up links of the AS pair. Host access links are ignored (no routing
  /// choice exists). NOT thread-safe against concurrent next_link lookups
  /// — mutate only at a window barrier.
  void set_link_state(LinkId link, bool up);

  /// Brings every routing table up to date with the link states (the SPF
  /// run after the flooding delay). OSPF trees are updated incrementally,
  /// only where a changed link can move them; the result equals a fresh
  /// build under the same down-set. Mutate-at-barrier only.
  void reconverge();

  /// Work reconverge() has done so far: calls, (tree, changed link) pairs
  /// that needed an update, and routers settled again in those trees.
  struct ReconvergeStats {
    std::uint64_t reconverges = 0;
    std::uint64_t trees_updated = 0;
    std::uint64_t routers_resettled = 0;
  };
  const ReconvergeStats& reconverge_stats() const { return stats_; }

  /// Checkpoint hooks (ckpt/ckpt.hpp): the failed-link set and
  /// reconverge_stats() are serialized, not the tables. Restore replays
  /// the down-set through set_link_state + reconverge, which brings every
  /// OSPF table and egress selection up to date — the tables are pure
  /// functions of (topology, down-set), so replay reproduces them exactly
  /// — then sets the stats back to the saved ones, so a resumed run
  /// reports the totals of an uninterrupted one.
  void save(ckpt::Writer& writer) const;
  bool load(ckpt::Reader& reader);

 private:
  explicit ForwardingPlane(const Network& net);

  // Builds the tables toward `dests` (routers); each domain's trees are
  // computed on worker threads (OspfDomain::add_destinations).
  void register_destinations(std::span<const NodeId> dests);

  const Network* net_;
  std::vector<LinkId> host_link_;  // per host index (id - num_routers)

  // Flat mode.
  std::optional<OspfDomain> flat_;

  void select_egress();

  // Multi-AS mode.
  std::vector<OspfDomain> domains_;  // one per AS
  std::optional<BgpSolver> bgp_;
  std::vector<std::unordered_map<AsId, LinkId>> egress_;  // per AS
  std::vector<LinkId> default_egress_;                    // per AS, stubs only
  Options opts_;
  std::unordered_set<LinkId> down_links_;
  ReconvergeStats stats_;
};

}  // namespace massf
