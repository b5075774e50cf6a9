// OSPF-style intra-domain routing: shortest paths by cumulative link
// latency, computed as one reverse shortest-path tree per *destination*
// router. Computing trees per destination (rather than per source) keeps
// large networks feasible: only routers that actually terminate or egress
// traffic need tables.
//
// Table invariant (what makes incremental reconvergence exact): for
// destination d, dist[v] is the shortest latency from v to d over the up
// links, and next[v] is the lowest link id among up arcs (v,w) with
// dist[w] + latency == dist[v]. Latencies are positive, so this pair is
// unique and any update that restores it yields exactly the tables a
// from-scratch Dijkstra builds. recompute() uses that to touch only the
// part of each tree a link change can move (DESIGN.md Section 4, item 3).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "topology/network.hpp"

namespace massf {

/// Shortest-path routing over a set of member routers of one routing domain
/// (a whole flat network, or the routers of one AS using only intra-AS
/// links).
class OspfDomain {
 public:
  /// `members` are the global router ids of the domain. Only links with
  /// both endpoints in `members` (and not marked inter_as unless
  /// `use_inter_as_links`) are considered. With `keep_distances` false the
  /// per-destination distance arrays are not stored (they cost 8 bytes x
  /// routers x destinations — prohibitive for a 20,000-router flat domain
  /// with thousands of destinations); distance() is then unavailable.
  /// Throws EngineError (config) when a domain link has a non-positive
  /// latency: shortest-path trees, and their incremental update, need
  /// positive arc costs.
  OspfDomain(const Network& net, std::span<const NodeId> members,
             bool use_inter_as_links, bool keep_distances = true);

  /// Computes the reverse shortest-path tree toward `dest` (a member) and
  /// stores the per-router next hop. Safe to call for the same dest twice.
  void add_destination(const Network& net, NodeId dest) {
    add_destinations(net, {&dest, 1}, 1);
  }

  /// add_destination for every router of `dests` in order (duplicates and
  /// registered ones are skipped): table slots are assigned serially, in
  /// first-appearance order, and the new trees are then computed on
  /// `workers` threads, each with its own scratch. 0 picks
  /// hardware_concurrency(), capped so every worker gets at least
  /// kMinTreesPerWorker trees. The tables equal those of repeated
  /// add_destination calls; all threads are joined before returning.
  void add_destinations(const Network& net, std::span<const NodeId> dests,
                        std::size_t workers = 0);
  static constexpr std::size_t kMinTreesPerWorker = 64;

  bool has_destination(NodeId dest) const {
    const std::int32_t d = local_index(dest);
    return d >= 0 && slot_[static_cast<std::size_t>(d)] >= 0;
  }

  /// Next link from `from` (a member router) toward `dest` (a registered
  /// destination). Returns kInvalidLink when from == dest or unreachable.
  LinkId next_link(NodeId from, NodeId dest) const;

  /// Next router on the path (the peer across next_link).
  NodeId next_hop(const Network& net, NodeId from, NodeId dest) const;

  /// Administratively excludes (or restores) a link; takes effect at the
  /// next recompute(), or at once while no destination is registered.
  /// Models the SPF view after an LSA withdrawal. Throws EngineError
  /// (config) for a link id outside the network.
  void set_link_excluded(LinkId link, bool excluded);

  /// Work done by one recompute(): trees the changes touched and routers
  /// whose entries were settled again.
  struct UpdateStats {
    std::uint64_t trees_updated = 0;
    std::uint64_t routers_resettled = 0;
  };

  /// Brings every registered destination's tree up to date with the
  /// exclusions set since the last call, one changed link at a time: only
  /// the routers whose next hop or distance a change can move are settled
  /// again, and trees it cannot affect are skipped. The tables equal a
  /// from-scratch build under the current exclusions.
  UpdateStats recompute(const Network& net);

  /// Latency distance (ns) from `from` to registered `dest`; -1 if
  /// unreachable. Requires keep_distances.
  std::int64_t distance(NodeId from, NodeId dest) const;

  std::size_t num_destinations() const { return tables_.size(); }

 private:
  struct Table {
    std::int32_t root;               // local index of the destination
    std::vector<LinkId> next;        // per local index
    std::vector<std::int64_t> dist;  // ns, -1 unreachable; empty when
                                     // distances are not kept
  };
  // Local adjacency restricted to the domain: (link, peer local idx, cost).
  struct Arc {
    LinkId link;
    std::int32_t peer;
    std::int64_t cost;
  };
  // Dijkstra scratch: the heap, the routers a search updated (recorded
  // only while `record` is set — the up path counts them), and the
  // distance array of a fresh build in a flat domain. One per thread.
  struct Scratch {
    std::vector<std::pair<std::int64_t, std::int32_t>> heap;
    std::vector<std::int32_t> touched;
    bool record = false;
    std::vector<std::int64_t> dist;
  };
  // Per-LinkId state bits in link_state_.
  static constexpr std::uint8_t kDown = 1;     // requested exclusion
  static constexpr std::uint8_t kSpfDown = 2;  // exclusion the tables reflect
  static constexpr std::uint8_t kPending = 4;  // set since the last recompute

  std::int32_t local_index(NodeId router) const {
    const auto i = static_cast<std::size_t>(router - base_);
    return i < local_.size() ? local_[i] : -1;
  }
  std::span<const Arc> arcs(std::int32_t v) const {
    const auto i = static_cast<std::size_t>(v);
    return {arcs_.data() + arc_begin_[i], arcs_.data() + arc_begin_[i + 1]};
  }
  bool arc_up(const Arc& a) const {
    return (link_state_[static_cast<std::size_t>(a.link)] & kSpfDown) == 0;
  }

  // Distances of the tree being updated. ArrayDist reads and writes a
  // plain array (a kept table's, or the scratch array of a fresh build).
  // LazyDist serves flat domains, which keep no distances: new values go
  // to scratch, and the tree's old distances are computed on demand by
  // summing latencies along next-chains.
  struct ArrayDist;
  struct LazyDist;
  std::int64_t old_distance(const Table& t, std::int32_t v);

  // Dijkstra from the entries already in s.heap, relaxing only into
  // routers `open` admits (ties go to the lower link id). While s.record
  // is set, every router it updates is appended to s.touched. Reads only
  // the domain's topology and link states, so threads with their own
  // Scratch may run it on distinct tables.
  template <class Dist, class Open>
  void settle(Table& t, Dist& dist, Scratch& s, Open open) const;
  template <class Dist>
  void relax(Table& t, Dist& dist, Scratch& s, std::int32_t v,
             std::int64_t nd, LinkId link) const;
  // The whole tree of t.root, from scratch.
  void build_tree(Table& t, Scratch& s) const;

  // One changed link, arc `ab` out of local router `a`, applied to one
  // tree (the link's state bit already flipped).
  template <class Dist>
  void apply_down(Table& t, Dist dist, const Arc& ab, std::int32_t a,
                  UpdateStats& stats);
  template <class Dist>
  void apply_up(Table& t, Dist dist, const Arc& ab, std::int32_t a,
                UpdateStats& stats);
  void next_dist_epoch();

  std::vector<NodeId> members_;
  NodeId base_ = 0;                  // lowest member id
  std::vector<std::int32_t> local_;  // NodeId - base_ -> local idx, or -1
  std::vector<std::size_t> arc_begin_;  // CSR offsets into arcs_
  std::vector<Arc> arcs_;
  std::vector<std::int32_t> slot_;  // local idx -> tables_ index, or -1
  std::vector<Table> tables_;
  std::vector<std::uint8_t> link_state_;  // per LinkId of the network
  std::vector<LinkId> pending_;
  bool keep_distances_ = true;

  // Scratch reused across updates.
  Scratch scratch_;
  std::vector<std::int32_t> region_;
  std::vector<std::uint32_t> mark_;  // == epoch_: in the current region
  std::uint32_t epoch_ = 0;
  // LazyDist state (flat domains), valid while == dist_epoch_: the tree's
  // distances before the update, and the values the update wrote.
  std::vector<std::int64_t> old_dist_, new_dist_;
  std::vector<std::uint32_t> old_known_, new_known_;
  std::uint32_t dist_epoch_ = 0;
  std::vector<std::pair<std::int32_t, std::int64_t>> walk_;
};

}  // namespace massf
