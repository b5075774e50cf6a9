// Golden-trace regression gate for the PDES hot path.
//
// Pins the event-trace checksum of the bench_pdes workload (lps=32,
// chain=64, hops=2000 — the exact configuration behind BENCH_pdes.json) so
// a scheduler refactor that silently reorders events fails loudly instead
// of shipping a perturbed trace with a plausible-looking speedup. The
// checksum folds every handled event's timestamp per LP and then across
// LPs, so any change to execution order, event count, or LP assignment
// moves it. The pinned value dates from the seed executor
// (std::priority_queue scheduler, static round-robin threading); the
// arena-heap/work-claiming engine must keep matching it at every thread
// count.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "pdes/engine.hpp"

namespace massf {
namespace {

// The BENCH_pdes.json workload checksum, unchanged since the seed engine.
constexpr std::uint64_t kGoldenChecksum = 807988445054369792ULL;
constexpr std::uint64_t kGoldenEvents = 4162080ULL;
constexpr std::uint64_t kGoldenWindows = 2001ULL;

constexpr std::int32_t kEvHop = 1;
constexpr std::int32_t kEvLocal = 2;

// Mirrors RingLp in bench/bench_pdes.cpp: a ring of LPs forwarding hop
// events at exactly the lookahead, each hop spawning a same-window
// self-chain.
class RingLp final : public LogicalProcess {
 public:
  RingLp(LpId next, std::int64_t chain) : next_(next), chain_(chain) {}

  void handle(Engine& engine, const Event& ev) override {
    checksum = checksum * 1099511628211ULL + static_cast<std::uint64_t>(ev.time);
    if (ev.type == kEvHop) {
      if (ev.a > 0) {
        engine.schedule(next_, ev.time + engine.options().lookahead, kEvHop,
                        ev.a - 1);
      }
      if (chain_ > 0) {
        engine.schedule(engine.current_lp(), ev.time + microseconds(1),
                        kEvLocal, static_cast<std::uint64_t>(chain_ - 1));
      }
    } else if (ev.a > 0) {
      engine.schedule(engine.current_lp(), ev.time + microseconds(1), kEvLocal,
                      ev.a - 1);
    }
  }

  std::uint64_t checksum = 0;

 private:
  LpId next_;
  std::int64_t chain_;
};

std::uint64_t run_bench_workload(std::int32_t threads, RunStats* out_stats) {
  constexpr std::int64_t kLps = 32;
  constexpr std::int64_t kChain = 64;
  constexpr std::uint64_t kHops = 2000;

  EngineOptions o;
  o.lookahead = milliseconds(1);
  o.end_time = seconds(3600);
  Engine engine(o);
  std::vector<RingLp*> lps;
  for (std::int64_t i = 0; i < kLps; ++i) {
    auto lp =
        std::make_unique<RingLp>(static_cast<LpId>((i + 1) % kLps), kChain);
    lps.push_back(lp.get());
    engine.add_lp(std::move(lp));
  }
  for (std::int64_t i = 0; i < kLps; ++i) {
    engine.schedule(static_cast<LpId>(i), 0, kEvHop, kHops);
  }
  *out_stats = threads > 0 ? engine.run_threaded(threads) : engine.run();

  std::uint64_t checksum = 0;
  for (const RingLp* lp : lps) checksum = checksum * 31 + lp->checksum;
  return checksum;
}

TEST(PdesGoldenTrace, SequentialMatchesPinnedChecksum) {
  RunStats stats;
  EXPECT_EQ(run_bench_workload(0, &stats), kGoldenChecksum);
  EXPECT_EQ(stats.total_events, kGoldenEvents);
  EXPECT_EQ(stats.num_windows, kGoldenWindows);
}

// The channel-clock executor must keep the pinned trace at every thread
// count (its whole claim is that it changes who waits on whom, not what
// happens — DESIGN.md section 5g). The SyncMode element only names the
// instances (channel_tN).
class PdesGoldenTraceThreaded
    : public ::testing::TestWithParam<std::tuple<int, SyncMode>> {};

TEST_P(PdesGoldenTraceThreaded, MatchesPinnedChecksum) {
  RunStats stats;
  EXPECT_EQ(run_bench_workload(std::get<0>(GetParam()), &stats),
            kGoldenChecksum);
  EXPECT_EQ(stats.total_events, kGoldenEvents);
  EXPECT_EQ(stats.num_windows, kGoldenWindows);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsBySync, PdesGoldenTraceThreaded,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(SyncMode::kChannel)),
    [](const ::testing::TestParamInfo<std::tuple<int, SyncMode>>& info) {
      return "channel_t" + std::to_string(std::get<0>(info.param));
    });

}  // namespace
}  // namespace massf
