// Supervision subsystem (src/guard, DESIGN.md section 5h): the liveness
// watchdog, the structured error taxonomy, and checkpoint-based
// auto-recovery.
//
// The headline property mirrors the checkpoint suite's: a run that *stalls*
// (here: a test-injected frozen channel clock) and is recovered by
// GuardedRun — restore the latest massf.ckpt.v1 checkpoint, degrade channel
// clocks to global barriers — must still produce the exact golden trace
// checksum (807988445054369792) that pdes_golden_test.cpp and
// BENCH_pdes.json pin for uninterrupted runs. Recovery is allowed to change
// who waits on whom, never what happens.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/ckpt.hpp"
#include "guard/guarded_run.hpp"
#include "guard/options.hpp"
#include "guard/watchdog.hpp"
#include "obs/metrics.hpp"
#include "pdes/engine.hpp"
#include "util/error.hpp"

namespace massf {
namespace {

// ---- error taxonomy ---------------------------------------------------------

TEST(EngineErrorTaxonomy, CarriesCategoryLocationAndMessage) {
  try {
    MASSF_THROW(ErrorCategory::kTopology, "test boom");
    FAIL() << "MASSF_THROW did not throw";
  } catch (const EngineError& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kTopology);
    const std::string what = e.what();
    EXPECT_NE(what.find("topology"), std::string::npos) << what;
    EXPECT_NE(what.find("test boom"), std::string::npos) << what;
    EXPECT_NE(what.find("guard_test.cpp"), std::string::npos) << what;
    EXPECT_GT(e.line(), 0);
  }
}

TEST(EngineErrorTaxonomy, EnforcePassesAndThrows) {
  EXPECT_NO_THROW(MASSF_ENFORCE(1 + 1 == 2, ErrorCategory::kInternal, "no"));
  EXPECT_THROW(MASSF_ENFORCE(false, ErrorCategory::kConfig, "yes"),
               EngineError);
}

TEST(EngineErrorTaxonomy, CategoryNamesAreStable) {
  EXPECT_STREQ(error_category_name(ErrorCategory::kConfig), "config");
  EXPECT_STREQ(error_category_name(ErrorCategory::kTopology), "topology");
  EXPECT_STREQ(error_category_name(ErrorCategory::kProtocolStall),
               "protocol-stall");
  EXPECT_STREQ(error_category_name(ErrorCategory::kIo), "io");
  EXPECT_STREQ(error_category_name(ErrorCategory::kInternal), "internal");
}

// ---- shared workload --------------------------------------------------------

// Mirrors RingLp in bench/bench_pdes.cpp (the BENCH_pdes.json workload).
constexpr std::uint64_t kGoldenChecksum = 807988445054369792ULL;
constexpr std::uint64_t kGoldenEvents = 4162080ULL;
constexpr std::uint64_t kGoldenWindows = 2001ULL;
constexpr std::int32_t kEvHop = 1;
constexpr std::int32_t kEvLocal = 2;

class RingLp final : public LogicalProcess {
 public:
  RingLp(LpId next, std::int64_t chain) : next_(next), chain_(chain) {}

  void handle(Engine& engine, const Event& ev) override {
    checksum = checksum * 1099511628211ULL +
               static_cast<std::uint64_t>(ev.time);
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

  void save(ckpt::Writer& w) const override { w.u64(checksum); }
  bool load(ckpt::Reader& r) override {
    checksum = r.u64();
    return r.ok();
  }

  std::uint64_t checksum = 0;

 private:
  LpId next_;
  std::int64_t chain_;
};

struct RingStack {
  RingStack(const EngineOptions& o, std::int64_t num_lps, std::int64_t chain,
            std::uint64_t hops) {
    engine = std::make_unique<Engine>(o);
    for (std::int64_t i = 0; i < num_lps; ++i) {
      auto lp = std::make_unique<RingLp>(
          static_cast<LpId>((i + 1) % num_lps), chain);
      lps.push_back(lp.get());
      engine->add_lp(std::move(lp));
    }
    for (std::int64_t i = 0; i < num_lps; ++i) {
      engine->schedule(static_cast<LpId>(i), 0, kEvHop, hops);
    }
  }

  std::uint64_t checksum() const {
    std::uint64_t c = 0;
    for (const RingLp* lp : lps) c = c * 31 + lp->checksum;
    return c;
  }

  std::unique_ptr<Engine> engine;
  std::vector<RingLp*> lps;
};

EngineOptions guarded_options(double deadline_s, const std::string& dump) {
  EngineOptions o;
  o.lookahead = milliseconds(1);
  o.end_time = seconds(3600);
  o.sync = SyncMode::kChannel;
  o.guard.enabled = true;
  o.guard.stall_deadline_s = deadline_s;
  o.guard.poll_interval_s = 0.02;
  o.guard.dump_path = dump;
  o.guard.on_stall = guard::OnStall::kCancel;
  return o;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Minimal well-formedness check over the dump: every brace/bracket opened
// outside a string literal is closed, and the document is one object.
bool json_balanced(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string && s.find('{') != std::string::npos;
}

// ---- watchdog ---------------------------------------------------------------

// A healthy run never trips the watchdog, however long it runs.
TEST(Watchdog, StaysQuietOnHealthyRun) {
  EngineOptions o = guarded_options(/*deadline_s=*/10.0, /*dump=*/"");
  RingStack stack(o, /*num_lps=*/4, /*chain=*/4, /*hops=*/200);
  guard::Watchdog watchdog(*stack.engine, o.guard);
  watchdog.arm();
  const RunStats stats = stack.engine->run_threaded(2);
  watchdog.disarm();
  EXPECT_FALSE(watchdog.fired());
  EXPECT_FALSE(stack.engine->run_cancelled());
  EXPECT_GT(stats.total_events, 0u);
  EXPECT_TRUE(watchdog.last_diagnostic().empty());
}

// Freeze one LP's channel clock mid-run: the watchdog must detect the
// stall within the deadline, emit a parseable massf.guard.v1 dump, and —
// under the kCancel policy — unwind the run instead of hanging it.
TEST(Watchdog, FiresOnFrozenLpClockAndWritesDump) {
  const std::string dump = ::testing::TempDir() + "/massf_guard_dump.json";
  std::remove(dump.c_str());

  EngineOptions o = guarded_options(/*deadline_s=*/0.25, dump);
  RingStack stack(o, /*num_lps=*/4, /*chain=*/4, /*hops=*/200000);
  stack.engine->test_freeze_lp_clock(/*lp=*/2, /*after_windows=*/5);

  obs::Registry registry;
  guard::Watchdog watchdog(*stack.engine, o.guard, &registry);
  watchdog.arm();
  const RunStats stats = stack.engine->run_threaded(2);
  watchdog.disarm();

  EXPECT_TRUE(watchdog.fired());
  EXPECT_TRUE(stack.engine->run_cancelled());
  // The run was cancelled well before its 3.6e6-window horizon.
  EXPECT_LT(stats.num_windows, 100u);
  EXPECT_EQ(registry.counter("guard.stalls_detected").value(), 1u);
  EXPECT_EQ(registry.counter("guard.dump_writes").value(), 1u);

  const std::string body = read_file(dump);
  ASSERT_FALSE(body.empty()) << "dump file missing: " << dump;
  EXPECT_TRUE(json_balanced(body)) << body;
  EXPECT_NE(body.find("\"schema\": \"massf.guard.v1\""), std::string::npos);
  EXPECT_NE(body.find("\"reason\": \"no-progress\""), std::string::npos);
  // Per-LP liveness rows: the frozen LP is listed with its channel clock.
  EXPECT_NE(body.find("\"lp\": 2"), std::string::npos);
  EXPECT_NE(body.find("\"queue_depth\""), std::string::npos);
  EXPECT_NE(body.find("\"in_degree\""), std::string::npos);
  EXPECT_EQ(watchdog.last_diagnostic(), body.substr(0, body.size() - 1));
}

// render_diagnostic is usable as a one-shot state dump on an idle engine.
TEST(Watchdog, RenderDiagnosticOnIdleEngineIsWellFormed) {
  EngineOptions o = guarded_options(/*deadline_s=*/1.0, /*dump=*/"");
  RingStack stack(o, /*num_lps=*/3, /*chain=*/0, /*hops=*/1);
  const std::string json =
      guard::Watchdog::render_diagnostic(*stack.engine, 0.0, 1.0);
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("massf.guard.v1"), std::string::npos);
  // Telemetry cells are allocated by the run itself; pre-run every LP row
  // renders with zeroed liveness but the row must still be present.
  EXPECT_NE(json.find("\"lp\": 2"), std::string::npos);
}

// ---- degradation ladder (no engine involved) --------------------------------

TEST(GuardedRunLadder, WalksRetryThenBarrierThenSequential) {
  obs::Registry registry;
  guard::GuardedRun::Options opts;
  opts.max_retries = 1;
  guard::GuardedRun runner(opts, &registry);

  std::vector<guard::AttemptPlan> plans;
  const guard::GuardedRunReport report = runner.run(
      SyncMode::kChannel, 4, [&](const guard::AttemptPlan& plan) {
        plans.push_back(plan);
        return guard::AttemptOutcome{guard::AttemptStatus::kStalled, "frozen"};
      });

  // rung 0 twice (1 + max_retries), then barrier fallback, then one thread.
  ASSERT_EQ(plans.size(), 4u);
  EXPECT_EQ(plans[0].sync, SyncMode::kChannel);
  EXPECT_EQ(plans[0].threads, 4);
  EXPECT_EQ(plans[0].rung, 0);
  EXPECT_FALSE(plans[0].restore);
  EXPECT_EQ(plans[1].sync, SyncMode::kChannel);
  EXPECT_EQ(plans[1].rung, 0);
  EXPECT_TRUE(plans[1].restore);
  EXPECT_EQ(plans[2].sync, SyncMode::kBarrier);
  EXPECT_EQ(plans[2].threads, 4);
  EXPECT_EQ(plans[2].rung, 1);
  EXPECT_EQ(plans[3].sync, SyncMode::kBarrier);
  EXPECT_EQ(plans[3].threads, 1);
  EXPECT_EQ(plans[3].rung, 2);

  EXPECT_FALSE(report.completed);
  EXPECT_EQ(report.attempts, 4);
  EXPECT_EQ(report.stalls, 4u);
  EXPECT_EQ(report.degraded_rung, -1);
  EXPECT_EQ(registry.counter("guard.retries").value(), 3u);
  EXPECT_EQ(registry.gauge("guard.degraded_mode").value(), -1.0);
}

TEST(GuardedRunLadder, SequentialRequestHasNoDegradationRungs) {
  guard::GuardedRun runner({}, nullptr);
  int calls = 0;
  const guard::GuardedRunReport report = runner.run(
      SyncMode::kBarrier, 0, [&](const guard::AttemptPlan&) {
        ++calls;
        return guard::AttemptOutcome{guard::AttemptStatus::kFailed, "boom"};
      });
  EXPECT_EQ(calls, 2);  // 1 + default max_retries, nothing to degrade to
  EXPECT_FALSE(report.completed);
  EXPECT_EQ(report.errors, 2u);
  EXPECT_EQ(report.last_error, "boom");
}

TEST(GuardedRunLadder, FirstTryCompletionIsNotARecovery) {
  obs::Registry registry;
  guard::GuardedRun runner({}, &registry);
  const guard::GuardedRunReport report = runner.run(
      SyncMode::kChannel, 2, [](const guard::AttemptPlan&) {
        return guard::AttemptOutcome{};
      });
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.attempts, 1);
  EXPECT_EQ(report.degraded_rung, 0);
  EXPECT_EQ(registry.counter("guard.recoveries").value(), 0u);
  EXPECT_EQ(registry.counter("guard.retries").value(), 0u);
  EXPECT_EQ(registry.gauge("guard.degraded_mode").value(), 0.0);
}

// ---- end-to-end recovery ----------------------------------------------------

// The headline: the golden bench workload under channel clocks, one LP's
// clock frozen at window 1000 (after the window-1000 checkpoint lands).
// The watchdog cancels the stalled attempt; GuardedRun restores the
// checkpoint under the barrier fallback and the run must finish with the
// same checksum, event count, and window count as an uninterrupted run.
TEST(GuardedRun, RecoversFrozenChannelRunToGoldenChecksum) {
  const std::string ckpt_path =
      ::testing::TempDir() + "/massf_guard_golden.ckpt";
  const std::string dump = ::testing::TempDir() + "/massf_guard_golden.json";
  std::remove(ckpt_path.c_str());
  std::remove(dump.c_str());

  obs::Registry registry;
  std::uint64_t checksum = 0;
  RunStats final_stats;

  auto attempt = [&](const guard::AttemptPlan& plan) -> guard::AttemptOutcome {
    EngineOptions o = guarded_options(/*deadline_s=*/0.3, dump);
    o.sync = plan.sync;
    RingStack stack(o, /*num_lps=*/32, /*chain=*/64, /*hops=*/2000);

    ckpt::Participants parts;
    Engine* eng = stack.engine.get();
    parts.add(
        "engine", [eng](ckpt::Writer& w) { eng->save_state(w); },
        [eng](ckpt::Reader& r) { return eng->restore_state(r); });

    if (plan.restore) {
      std::string error;
      const auto parsed = ckpt::Checkpoint::read_file(ckpt_path, &error);
      if (!parsed.has_value()) {
        return {guard::AttemptStatus::kFailed, "checkpoint read: " + error};
      }
      if (!parts.restore(*parsed, &error)) {
        return {guard::AttemptStatus::kFailed, "checkpoint restore: " + error};
      }
    }
    eng->hooks().ckpt_every = 500;
    eng->hooks().ckpt = [&parts, &ckpt_path](Engine&, SimTime) {
      ckpt::Checkpoint ck;
      parts.save(ck);
      std::string error;
      ASSERT_TRUE(ck.write_file(ckpt_path, &error)) << error;
    };
    if (plan.sync == SyncMode::kChannel) {
      // The stall injection only exists on the channel-clock protocol; the
      // barrier fallback runs clean — exactly the degradation contract.
      eng->test_freeze_lp_clock(/*lp=*/3, /*after_windows=*/1000);
    }

    guard::Watchdog watchdog(*eng, o.guard, &registry);
    watchdog.arm();
    const RunStats stats = plan.threads > 0
                               ? eng->run_threaded(plan.threads)
                               : eng->run();
    watchdog.disarm();
    if (eng->run_cancelled()) {
      return {guard::AttemptStatus::kStalled, watchdog.last_diagnostic()};
    }
    checksum = stack.checksum();
    final_stats = stats;
    return {};
  };

  guard::GuardedRun::Options opts;
  opts.max_retries = 0;  // straight to the barrier fallback after the stall
  guard::GuardedRun runner(opts, &registry);
  const guard::GuardedRunReport report =
      runner.run(SyncMode::kChannel, 2, attempt);

  ASSERT_TRUE(report.completed) << report.last_error;
  EXPECT_EQ(report.attempts, 2);
  EXPECT_EQ(report.stalls, 1u);
  EXPECT_EQ(report.degraded_rung, 1);

  EXPECT_EQ(checksum, kGoldenChecksum);
  EXPECT_EQ(final_stats.total_events, kGoldenEvents);
  EXPECT_EQ(final_stats.num_windows, kGoldenWindows);

  EXPECT_GE(registry.counter("guard.stalls_detected").value(), 1u);
  EXPECT_GE(registry.counter("guard.dump_writes").value(), 1u);
  EXPECT_EQ(registry.counter("guard.retries").value(), 1u);
  EXPECT_EQ(registry.counter("guard.recoveries").value(), 1u);
  EXPECT_EQ(registry.gauge("guard.degraded_mode").value(), 1.0);

  const std::string body = read_file(dump);
  ASSERT_FALSE(body.empty());
  EXPECT_TRUE(json_balanced(body)) << body;
  EXPECT_NE(body.find("massf.guard.v1"), std::string::npos);
}

}  // namespace
}  // namespace massf
