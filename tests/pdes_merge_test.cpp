// The window-boundary merge: Outbox bucket bookkeeping (sched.hpp) and a
// differential check that the sequential executor's source-major merge
// assigns exactly the arrival seqs the parallel executors' destination-
// major merge (Engine::merge_lp_inbox) assigns — per-LP event traces,
// cross-LP tallies and window-probe rows all equal across executors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/probe.hpp"
#include "pdes/channel_sync.hpp"
#include "pdes/engine.hpp"
#include "pdes/sched.hpp"

namespace massf {
namespace {

Event to(LpId dst, std::uint64_t tag) {
  Event ev;
  ev.lp = dst;
  ev.a = tag;
  return ev;
}

std::vector<std::uint64_t> tags(const std::vector<Event>* events) {
  std::vector<std::uint64_t> out;
  if (events != nullptr) {
    for (const Event& ev : *events) out.push_back(ev.a);
  }
  return out;
}

// ---- Outbox ----------------------------------------------------------------

TEST(Outbox, DestinationsOutOfOrderAndBeyondIndex) {
  Outbox box;
  box.add(to(5, 1));
  box.add(to(2, 2));
  box.add(to(40, 3));  // past the index grown for 5
  box.add(to(5, 4));
  box.add(to(0, 5));
  EXPECT_EQ(tags(box.find(5)), (std::vector<std::uint64_t>{1, 4}));
  EXPECT_EQ(tags(box.find(2)), (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(tags(box.find(40)), (std::vector<std::uint64_t>{3}));
  EXPECT_EQ(tags(box.find(0)), (std::vector<std::uint64_t>{5}));
  EXPECT_EQ(box.dsts(), (std::vector<LpId>{0, 2, 5, 40}));
  EXPECT_EQ(box.total(), 5u);
  EXPECT_EQ(box.batches(), 4u);
}

TEST(Outbox, FindUnusedDestinationAndAfterClear) {
  Outbox box;
  EXPECT_EQ(box.find(0), nullptr);
  EXPECT_EQ(box.find(kInvalidLp), nullptr);
  box.add(to(3, 1));
  EXPECT_EQ(box.find(1), nullptr);     // inside the index, never used
  EXPECT_EQ(box.find(4), nullptr);     // just past the index
  EXPECT_EQ(box.find(1000), nullptr);  // far past the index
  EXPECT_EQ(box.find(kInvalidLp), nullptr);
  ASSERT_NE(box.find(3), nullptr);
  box.clear();
  EXPECT_EQ(box.find(3), nullptr);  // bucket kept, but empty
  EXPECT_TRUE(box.dsts().empty());
}

TEST(Outbox, TalliesAcrossClearAndReuse) {
  Outbox box;
  for (std::uint64_t k = 0; k < 3; ++k) box.add(to(7, k));
  box.add(to(1, 9));
  EXPECT_EQ(box.total(), 4u);
  EXPECT_EQ(box.batches(), 2u);
  box.clear();
  EXPECT_EQ(box.total(), 0u);
  EXPECT_EQ(box.batches(), 0u);

  // Next window: one old destination, one new; the stale bucket for 7
  // must not count or be visited.
  box.add(to(1, 10));
  box.add(to(12, 11));
  box.add(to(1, 12));
  EXPECT_EQ(box.total(), 3u);
  EXPECT_EQ(box.batches(), 2u);
  EXPECT_EQ(box.find(7), nullptr);
  EXPECT_EQ(tags(box.find(1)), (std::vector<std::uint64_t>{10, 12}));
  EXPECT_EQ(box.dsts(), (std::vector<LpId>{1, 12}));
  std::map<LpId, std::vector<std::uint64_t>> seen;
  box.for_each_batch([&seen](LpId dst, const std::vector<Event>& events) {
    EXPECT_TRUE(seen.emplace(dst, tags(&events)).second) << "dst " << dst;
  });
  EXPECT_EQ(seen, (std::map<LpId, std::vector<std::uint64_t>>{
                      {1, {10, 12}}, {12, {11}}}));

  box.clear();
  box.add(to(7, 20));
  EXPECT_EQ(box.total(), 1u);
  EXPECT_EQ(box.batches(), 1u);
  EXPECT_EQ(tags(box.find(7)), (std::vector<std::uint64_t>{20}));
  EXPECT_EQ(box.dsts(), (std::vector<LpId>{7}));
}

// ---- differential merge ----------------------------------------------------

constexpr std::int32_t kLps = 64;
constexpr LpId kHub = 0;    // fans out to every third LP
constexpr LpId kSink = 63;  // many sources send it same-timestamp events
constexpr std::int32_t kEvTick = 1;
constexpr std::int32_t kEvMsg = 2;
constexpr std::uint64_t kTicks = 40;

std::uint64_t mix(std::uint64_t x, std::uint64_t y) {
  std::uint64_t h = x * 0x9E3779B97F4A7C15ULL ^ (y + 0x632BE59BD9B4E019ULL);
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ULL;
  return h ^ (h >> 32);
}

using Record = std::tuple<SimTime, std::uint64_t, std::int32_t, std::uint64_t,
                          std::uint64_t, std::uint64_t, std::uint64_t>;

class MeshLp final : public LogicalProcess {
 public:
  explicit MeshLp(std::set<std::pair<LpId, LpId>>* sends) : sends_(sends) {}

  void handle(Engine& e, const Event& ev) override {
    trace.emplace_back(ev.time, ev.seq, ev.type, ev.a, ev.b, ev.c, ev.d);
    const LpId self = e.current_lp();
    const SimTime la = e.options().lookahead;
    const auto ula = static_cast<std::uint64_t>(la);
    const auto send = [&](LpId dst, SimTime at, std::uint64_t c,
                          std::uint64_t d) {
      if (sends_ != nullptr) sends_->emplace(self, dst);
      e.schedule(dst, at, kEvMsg, static_cast<std::uint64_t>(self), ev.a, c,
                 d);
    };
    if (ev.type == kEvMsg) {
      // Sparse replies along the reverse direction.
      if (ev.c == 3 && ev.b % 3 == 0) {
        send(static_cast<LpId>(ev.a), ev.time + la, 4, ev.d + 1);
      }
      return;
    }
    if (ev.a == 0) return;
    const std::uint64_t h = mix(static_cast<std::uint64_t>(self), ev.a);
    e.schedule(self, ev.time + la / 2 + static_cast<SimTime>(h % ula), kEvTick,
               ev.a - 1);
    if (self == kHub) {
      for (LpId d = 1; d < kLps; d += 3) send(d, ev.time + la, 0, 0);
    } else if (self >= 8 && self < 16) {
      // Two sends per tick, timestamp aligned to the lookahead grid, so
      // sources processed in the same window collide at the sink.
      const SimTime aligned = (ev.time / la + 2) * la;
      send(kSink, aligned, 1, 0);
      send(kSink, aligned, 2, 0);
    } else if (h % 5 == 0) {
      const auto dst = static_cast<LpId>(mix(ev.a, h) % kLps);
      if (dst != self) {
        send(dst, ev.time + la + static_cast<SimTime>(h % ula), 3, 0);
      }
    }
  }

  std::vector<Record> trace;

 private:
  std::set<std::pair<LpId, LpId>>* sends_;
};

struct ProbeRow {
  std::uint64_t index, events, max_lp_events, queue_depth, max_queue_depth,
      outbox, outbox_batches;
  bool operator==(const ProbeRow&) const = default;
};

struct Outcome {
  std::vector<std::vector<Record>> traces;
  RunStats stats;
  std::vector<ProbeRow> rows;
  std::vector<std::uint64_t> probe_lp_events;
};

enum class Exec { kSequential, kChannel };

/// Runs the mesh; `threads` is ignored for kSequential. A non-null
/// `declared` becomes the engine's ChannelGraph; a non-null `sends`
/// collects every (src, dst) pair used.
Outcome run_mesh(Exec exec, std::int32_t threads, bool probed,
                 const std::set<std::pair<LpId, LpId>>* declared = nullptr,
                 std::set<std::pair<LpId, LpId>>* sends = nullptr) {
  EngineOptions o;
  o.lookahead = milliseconds(1);
  o.end_time = seconds(1);
  Engine engine(o);
  std::vector<MeshLp*> lps;
  for (std::int32_t i = 0; i < kLps; ++i) {
    auto lp = std::make_unique<MeshLp>(sends);
    lps.push_back(lp.get());
    engine.add_lp(std::move(lp));
  }
  if (declared != nullptr) {
    ChannelGraph g;
    for (const auto& [s, d] : *declared) g.add(s, d, o.lookahead);
    engine.set_channels(std::move(g));
  }
  for (LpId i = 0; i < kLps; ++i) {
    const auto start = mix(static_cast<std::uint64_t>(i), 0) %
                       static_cast<std::uint64_t>(o.lookahead);
    engine.schedule(i, static_cast<SimTime>(start), kEvTick, kTicks);
  }
  obs::WindowProbe probe;
  if (probed) engine.set_probe(&probe);
  Outcome out;
  out.stats = exec == Exec::kSequential ? engine.run()
                                        : engine.run_threaded(threads);
  for (const MeshLp* lp : lps) out.traces.push_back(lp->trace);
  for (const obs::WindowProbe::Window& w : probe.windows()) {
    out.rows.push_back({w.index, w.events, w.max_lp_events, w.queue_depth,
                        w.max_queue_depth, w.outbox, w.outbox_batches});
  }
  out.probe_lp_events = probe.lp_events();
  return out;
}

void expect_same_run(const Outcome& want, const Outcome& got) {
  ASSERT_EQ(got.traces.size(), want.traces.size());
  for (std::size_t i = 0; i < want.traces.size(); ++i) {
    EXPECT_EQ(got.traces[i], want.traces[i]) << "lp " << i;
  }
  EXPECT_EQ(got.stats.total_events, want.stats.total_events);
  EXPECT_EQ(got.stats.num_windows, want.stats.num_windows);
  EXPECT_EQ(got.stats.cross_lp_events, want.stats.cross_lp_events);
  EXPECT_EQ(got.stats.merge_batches, want.stats.merge_batches);
}

// The workload must exercise what the merge order decides: many batches
// per window, and same-timestamp arrivals at one LP from several sources.
TEST(MergeDifferential, WorkloadCollidesAtTheSink) {
  const Outcome seq = run_mesh(Exec::kSequential, 1, false);
  EXPECT_GT(seq.stats.merge_batches, 2 * seq.stats.num_windows);
  EXPECT_GT(seq.stats.cross_lp_events, seq.stats.merge_batches);
  std::map<SimTime, std::set<std::uint64_t>> sources_at;
  for (const Record& r : seq.traces[kSink]) {
    if (std::get<2>(r) == kEvMsg) {
      sources_at[std::get<0>(r)].insert(std::get<3>(r));
    }
  }
  std::size_t widest = 0;
  for (const auto& [t, srcs] : sources_at) {
    widest = std::max(widest, srcs.size());
  }
  EXPECT_GE(widest, 3u);
}

TEST(MergeDifferential, ProbeLeavesSequentialRunUnchanged) {
  const Outcome plain = run_mesh(Exec::kSequential, 1, false);
  const Outcome probed = run_mesh(Exec::kSequential, 1, true);
  expect_same_run(plain, probed);
  ASSERT_EQ(probed.rows.size(), probed.stats.num_windows);
  std::uint64_t outbox = 0, batches = 0;
  for (const ProbeRow& r : probed.rows) {
    outbox += r.outbox;
    batches += r.outbox_batches;
  }
  EXPECT_EQ(outbox, probed.stats.cross_lp_events);
  EXPECT_EQ(batches, probed.stats.merge_batches);
}

class MergeDifferentialExec
    : public ::testing::TestWithParam<std::tuple<Exec, std::int32_t>> {};

TEST_P(MergeDifferentialExec, MatchesSequentialTracesTalliesAndProbeRows) {
  const auto [exec, threads] = GetParam();
  const Outcome want = run_mesh(Exec::kSequential, 1, true);
  const Outcome got = run_mesh(exec, threads, true);
  expect_same_run(want, got);
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.probe_lp_events, want.probe_lp_events);
  expect_same_run(want, run_mesh(exec, threads, false));
}

TEST_P(MergeDifferentialExec, MatchesSequentialOnDeclaredChannels) {
  // Declared topology: the channel executor drains only in-neighbors,
  // while the sequential pass ignores the graph entirely.
  const auto [exec, threads] = GetParam();
  std::set<std::pair<LpId, LpId>> sends;
  const Outcome want = run_mesh(Exec::kSequential, 1, true, nullptr, &sends);
  ASSERT_GT(sends.size(), 20u);
  expect_same_run(want, run_mesh(Exec::kSequential, 1, true, &sends));
  const Outcome got = run_mesh(exec, threads, true, &sends);
  expect_same_run(want, got);
  EXPECT_EQ(got.rows, want.rows);
}

INSTANTIATE_TEST_SUITE_P(
    Executors, MergeDifferentialExec,
    ::testing::Values(std::make_tuple(Exec::kChannel, 2),
                      std::make_tuple(Exec::kChannel, 4)),
    [](const auto& info) {
      return "Channel" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace massf
