#include "routing/ospf.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <string>
#include <system_error>
#include <thread>

#include "util/check.hpp"
#include "util/error.hpp"
#include "util/host.hpp"

namespace massf {
namespace {

// Advances a stamp so that every entry of `stamps` reads as unset, without
// clearing the array except on wrap-around.
void next_epoch(std::vector<std::uint32_t>& stamps, std::uint32_t& epoch) {
  if (++epoch == 0) {
    std::fill(stamps.begin(), stamps.end(), 0u);
    epoch = 1;
  }
}

}  // namespace

OspfDomain::OspfDomain(const Network& net, std::span<const NodeId> members,
                       bool use_inter_as_links, bool keep_distances)
    : members_(members.begin(), members.end()),
      keep_distances_(keep_distances) {
  const std::size_t n = members_.size();
  if (n > 0) {
    const auto [lo, hi] =
        std::minmax_element(members_.begin(), members_.end());
    base_ = *lo;
    local_.assign(static_cast<std::size_t>(*hi - *lo) + 1, -1);
  }
  for (std::size_t i = 0; i < n; ++i) {
    MASSF_CHECK(net.is_router(members_[i]));
    std::int32_t& local = local_[static_cast<std::size_t>(members_[i] - base_)];
    MASSF_CHECK(local < 0);  // no duplicate members
    local = static_cast<std::int32_t>(i);
  }
  arc_begin_.reserve(n + 1);
  arc_begin_.push_back(0);
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& inc : net.incident(members_[i])) {
      const NetLink& l = net.links[static_cast<std::size_t>(inc.link)];
      if (l.inter_as && !use_inter_as_links) continue;
      const std::int32_t peer = local_index(inc.peer);
      if (peer < 0) continue;
      MASSF_ENFORCE(l.latency > 0, ErrorCategory::kConfig,
                    "OSPF link " + std::to_string(inc.link) +
                        " has non-positive latency " +
                        std::to_string(l.latency));
      arcs_.push_back({inc.link, peer, l.latency});
    }
    arc_begin_.push_back(arcs_.size());
  }
  slot_.assign(n, -1);
  link_state_.assign(net.links.size(), 0);
  mark_.assign(n, 0);
  if (!keep_distances_) {
    old_dist_.assign(n, -1);
    new_dist_.assign(n, -1);
    old_known_.assign(n, 0);
    new_known_.assign(n, 0);
  }
}

struct OspfDomain::ArrayDist {
  std::int64_t* d;
  std::int64_t get(std::int32_t v) const { return d[v]; }
  void set(std::int32_t v, std::int64_t x) { d[v] = x; }
};

struct OspfDomain::LazyDist {
  OspfDomain* o;
  const Table* t;
  std::int64_t get(std::int32_t v) const {
    const auto i = static_cast<std::size_t>(v);
    return o->new_known_[i] == o->dist_epoch_ ? o->new_dist_[i]
                                              : o->old_distance(*t, v);
  }
  // A chain walk must never follow a next hop the update rewrote. It does
  // not: relax() reads a router (caching its old distance, where walks
  // stop) before it writes it, and the routers the down update clears
  // without reading are exactly the ones no walk from outside can reach.
  void set(std::int32_t v, std::int64_t x) {
    const auto i = static_cast<std::size_t>(v);
    o->new_known_[i] = o->dist_epoch_;
    o->new_dist_[i] = x;
  }
};

void OspfDomain::next_dist_epoch() {
  if (++dist_epoch_ == 0) {
    std::fill(old_known_.begin(), old_known_.end(), 0u);
    std::fill(new_known_.begin(), new_known_.end(), 0u);
    dist_epoch_ = 1;
  }
}

std::int64_t OspfDomain::old_distance(const Table& t, std::int32_t v) {
  // Walk the next-chain to a router whose distance is known (the root, an
  // unreachable router, or one cached earlier), then unwind, caching the
  // sum of latencies at every router passed.
  walk_.clear();
  std::int64_t d;
  for (;;) {
    const auto i = static_cast<std::size_t>(v);
    if (old_known_[i] == dist_epoch_) {
      d = old_dist_[i];
      break;
    }
    const LinkId l = t.next[i];
    if (v == t.root || l == kInvalidLink) {
      d = v == t.root ? 0 : -1;
      old_dist_[i] = d;
      old_known_[i] = dist_epoch_;
      break;
    }
    const auto out = arcs(v);
    const Arc& arc = *std::find_if(out.begin(), out.end(),
                                   [l](const Arc& a) { return a.link == l; });
    walk_.push_back({v, arc.cost});
    v = arc.peer;
  }
  for (auto it = walk_.rbegin(); it != walk_.rend(); ++it) {
    d = d < 0 ? -1 : d + it->second;
    old_dist_[static_cast<std::size_t>(it->first)] = d;
    old_known_[static_cast<std::size_t>(it->first)] = dist_epoch_;
  }
  return d;
}

template <class Dist>
void OspfDomain::relax(Table& t, Dist& dist, Scratch& s, std::int32_t v,
                       std::int64_t nd, LinkId link) const {
  const std::int64_t cur = dist.get(v);
  LinkId& nxt = t.next[static_cast<std::size_t>(v)];
  if (cur < 0 || nd < cur || (nd == cur && link < nxt)) {
    dist.set(v, nd);
    nxt = link;
    s.heap.push_back({nd, v});
    std::push_heap(s.heap.begin(), s.heap.end(), std::greater<>{});
    if (s.record) s.touched.push_back(v);
  }
}

template <class Dist, class Open>
void OspfDomain::settle(Table& t, Dist& dist, Scratch& s, Open open) const {
  while (!s.heap.empty()) {
    std::pop_heap(s.heap.begin(), s.heap.end(), std::greater<>{});
    const auto [d, v] = s.heap.back();
    s.heap.pop_back();
    if (d != dist.get(v)) continue;
    for (const Arc& a : arcs(v)) {
      if (arc_up(a) && open(a.peer)) {
        relax(t, dist, s, a.peer, d + a.cost, a.link);
      }
    }
  }
}

// Dijkstra outward from the destination; because links are symmetric the
// tree rooted at dest gives, for every router, the first link of its
// shortest path *toward* dest. Ties are broken toward the lower link id so
// tables are deterministic.
void OspfDomain::build_tree(Table& t, Scratch& s) const {
  ArrayDist dist{t.dist.data()};
  if (!keep_distances_) {
    s.dist.assign(members_.size(), -1);
    dist.d = s.dist.data();
  }
  dist.set(t.root, 0);
  s.heap.assign(1, {0, t.root});
  settle(t, dist, s, [](std::int32_t) { return true; });
}

void OspfDomain::add_destinations(const Network& net,
                                  std::span<const NodeId> dests,
                                  std::size_t workers) {
  (void)net;
  // Slots first, serially, so they do not depend on the thread count. The
  // tables are allocated here too: the workers only fill them.
  const std::size_t first = tables_.size();
  const std::size_t n = members_.size();
  for (const NodeId dest : dests) {
    const std::int32_t d = local_index(dest);
    MASSF_CHECK(d >= 0);
    std::int32_t& slot = slot_[static_cast<std::size_t>(d)];
    if (slot >= 0) continue;
    slot = static_cast<std::int32_t>(tables_.size());
    tables_.push_back({d, std::vector<LinkId>(n, kInvalidLink),
                       keep_distances_ ? std::vector<std::int64_t>(n, -1)
                                       : std::vector<std::int64_t>{}});
  }
  const std::span<Table> fresh(tables_.data() + first,
                               tables_.size() - first);
  if (fresh.empty()) return;

  if (workers == 0) {
    const std::size_t cpus = std::max(1u, host_cpus());
    workers = std::min(cpus, fresh.size() / kMinTreesPerWorker);
  }
  workers = std::clamp<std::size_t>(workers, 1, fresh.size());

  // Trees are independent, so which worker builds which cannot change a
  // table: hand them out through a shared counter.
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    Scratch s;
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < fresh.size(); i = next.fetch_add(1, std::memory_order_relaxed)) {
      build_tree(fresh[i], s);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  try {
    while (threads.size() + 1 < workers) threads.emplace_back(work);
  } catch (const std::system_error&) {
    // No thread to be had: the threads already started and this one
    // finish the work.
  }
  work();
  for (std::thread& t : threads) t.join();
}

void OspfDomain::set_link_excluded(LinkId link, bool excluded) {
  MASSF_ENFORCE(link >= 0 &&
                    static_cast<std::size_t>(link) < link_state_.size(),
                ErrorCategory::kConfig,
                "set_link_excluded: link " + std::to_string(link) +
                    " is not a link of the network");
  std::uint8_t& s = link_state_[static_cast<std::size_t>(link)];
  const std::uint8_t bits = tables_.empty() ? kDown | kSpfDown : kDown;
  s = excluded ? s | bits : s & ~bits;
  if (!tables_.empty() && (s & kPending) == 0) {
    s |= kPending;
    pending_.push_back(link);
  }
}

// Link (a,b) went down. Only routers whose next-chain crosses it — the
// subtree hanging below the endpoint whose next hop it was — can change:
// every other router keeps its distance, and its next hop stays the lowest
// tight arc because distances only grow. Re-settle that subtree with a
// Dijkstra seeded from its up arcs to routers outside it.
template <class Dist>
void OspfDomain::apply_down(Table& t, Dist dist, const Arc& ab,
                            std::int32_t a, UpdateStats& stats) {
  const std::int32_t b = ab.peer;
  const std::int32_t x = t.next[static_cast<std::size_t>(a)] == ab.link ? a
                         : t.next[static_cast<std::size_t>(b)] == ab.link
                             ? b
                             : -1;
  if (x < 0) return;

  next_epoch(mark_, epoch_);
  region_.assign(1, x);
  mark_[static_cast<std::size_t>(x)] = epoch_;
  for (std::size_t i = 0; i < region_.size(); ++i) {
    for (const Arc& arc : arcs(region_[i])) {
      const auto w = static_cast<std::size_t>(arc.peer);
      if (t.next[w] == arc.link && mark_[w] != epoch_) {
        mark_[w] = epoch_;
        region_.push_back(arc.peer);
      }
    }
  }

  for (const std::int32_t v : region_) {
    dist.set(v, -1);
    t.next[static_cast<std::size_t>(v)] = kInvalidLink;
  }
  scratch_.heap.clear();
  for (const std::int32_t v : region_) {
    for (const Arc& arc : arcs(v)) {
      if (!arc_up(arc) ||
          mark_[static_cast<std::size_t>(arc.peer)] == epoch_) {
        continue;
      }
      const std::int64_t dw = dist.get(arc.peer);
      if (dw >= 0) relax(t, dist, scratch_, v, dw + arc.cost, arc.link);
    }
  }
  settle(t, dist, scratch_, [this](std::int32_t v) {
    return mark_[static_cast<std::size_t>(v)] == epoch_;
  });
  ++stats.trees_updated;
  stats.routers_resettled += region_.size();
}

// Link (a,b) came up. The tree changes only if the link gives an endpoint
// a shorter path, or an equal one through a lower link id. Distances can
// then only fall, so a Dijkstra seeded at that endpoint with its new entry
// reaches every router that improves, and nothing else but ties:
// - an improved router has no tight arc to a router that did not improve
//   (that arc would be an equal path that avoids the link, so the router
//   could not have improved); all its tight arcs come from routers the
//   search settles before it;
// - a router that did not improve keeps its tight arcs and gains only arcs
//   to improved routers, which the search relaxes with the tie-break.
template <class Dist>
void OspfDomain::apply_up(Table& t, Dist dist, const Arc& ab, std::int32_t a,
                          UpdateStats& stats) {
  const std::int32_t b = ab.peer;
  const std::int64_t da = dist.get(a);
  const std::int64_t db = dist.get(b);
  const auto improves = [&](std::int64_t du, std::int64_t dv,
                            std::int32_t v) {
    return du >= 0 &&
           (dv < 0 || du + ab.cost < dv ||
            (du + ab.cost == dv &&
             ab.link < t.next[static_cast<std::size_t>(v)]));
  };
  scratch_.heap.clear();
  scratch_.touched.clear();
  scratch_.record = true;
  if (improves(da, db, b)) {
    relax(t, dist, scratch_, b, da + ab.cost, ab.link);
  } else if (improves(db, da, a)) {
    relax(t, dist, scratch_, a, db + ab.cost, ab.link);
  }
  settle(t, dist, scratch_, [](std::int32_t) { return true; });
  scratch_.record = false;
  if (scratch_.touched.empty()) return;  // the tree does not change

  next_epoch(mark_, epoch_);
  for (const std::int32_t v : scratch_.touched) {
    std::uint32_t& m = mark_[static_cast<std::size_t>(v)];
    if (m != epoch_) {
      m = epoch_;
      ++stats.routers_resettled;
    }
  }
  ++stats.trees_updated;
}

OspfDomain::UpdateStats OspfDomain::recompute(const Network& net) {
  UpdateStats stats;
  // Apply the changed links one at a time, each step exact against the
  // link states of the steps before it. A link set back to the state the
  // tables already reflect is a no-op.
  for (const LinkId link : pending_) {
    std::uint8_t& s = link_state_[static_cast<std::size_t>(link)];
    s &= static_cast<std::uint8_t>(~kPending);
    const bool down = (s & kDown) != 0;
    if (down == ((s & kSpfDown) != 0)) continue;
    s ^= kSpfDown;

    const NetLink& l = net.links[static_cast<std::size_t>(link)];
    const std::int32_t a = local_index(l.a);
    if (a < 0) continue;
    const auto from_a = arcs(a);
    const auto it =
        std::find_if(from_a.begin(), from_a.end(),
                     [link](const Arc& arc) { return arc.link == link; });
    if (it == from_a.end()) continue;  // not a link of this domain

    const auto apply = [&](Table& t, auto dist) {
      if (down) {
        apply_down(t, dist, *it, a, stats);
      } else {
        apply_up(t, dist, *it, a, stats);
      }
    };
    for (Table& t : tables_) {
      if (keep_distances_) {
        apply(t, ArrayDist{t.dist.data()});
      } else {
        next_dist_epoch();
        apply(t, LazyDist{this, &t});
      }
    }
  }
  pending_.clear();
  return stats;
}

LinkId OspfDomain::next_link(NodeId from, NodeId dest) const {
  const std::int32_t f = local_index(from);
  const std::int32_t d = local_index(dest);
  MASSF_CHECK(f >= 0 && d >= 0);
  const std::int32_t s = slot_[static_cast<std::size_t>(d)];
  MASSF_CHECK(s >= 0);
  return tables_[static_cast<std::size_t>(s)].next[static_cast<std::size_t>(f)];
}

NodeId OspfDomain::next_hop(const Network& net, NodeId from,
                            NodeId dest) const {
  const LinkId l = next_link(from, dest);
  if (l == kInvalidLink) return kInvalidNode;
  const NetLink& link = net.links[static_cast<std::size_t>(l)];
  return link.a == from ? link.b : link.a;
}

std::int64_t OspfDomain::distance(NodeId from, NodeId dest) const {
  MASSF_CHECK(keep_distances_);
  const std::int32_t f = local_index(from);
  const std::int32_t d = local_index(dest);
  MASSF_CHECK(f >= 0 && d >= 0);
  const std::int32_t s = slot_[static_cast<std::size_t>(d)];
  MASSF_CHECK(s >= 0);
  return tables_[static_cast<std::size_t>(s)].dist[static_cast<std::size_t>(f)];
}

}  // namespace massf
