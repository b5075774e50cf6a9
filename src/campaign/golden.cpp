#include "campaign/golden.hpp"

#include <memory>
#include <utility>
#include <vector>

#include "ckpt/ckpt.hpp"
#include "pdes/engine.hpp"
#include "shard/supervisor.hpp"

namespace massf {
namespace {

constexpr std::int32_t kEvHop = 1;
constexpr std::int32_t kEvLocal = 2;

class RingLp final : public LogicalProcess {
 public:
  RingLp(LpId next, std::int64_t chain) : next_(next), chain_(chain) {}

  void handle(Engine& engine, const Event& ev) override {
    checksum =
        checksum * 1099511628211ULL + static_cast<std::uint64_t>(ev.time);
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
      engine.schedule(engine.current_lp(), ev.time + microseconds(1),
                      kEvLocal, ev.a - 1);
    }
  }

  // The fold is LP state: a checkpoint-restored run (the sharded rows'
  // recovery rung) must carry the already-folded prefix.
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

shard::ShardWorkload build_ring() {
  constexpr std::int64_t kLps = 32;
  constexpr std::int64_t kChain = 64;
  constexpr std::uint64_t kHops = 2000;

  EngineOptions o;
  o.lookahead = milliseconds(1);
  o.end_time = seconds(3600);
  auto engine = std::make_unique<Engine>(o);
  auto lps = std::make_shared<std::vector<RingLp*>>();
  for (std::int64_t i = 0; i < kLps; ++i) {
    auto lp =
        std::make_unique<RingLp>(static_cast<LpId>((i + 1) % kLps), kChain);
    lps->push_back(lp.get());
    engine->add_lp(std::move(lp));
  }
  for (std::int64_t i = 0; i < kLps; ++i) {
    engine->schedule(static_cast<LpId>(i), 0, kEvHop, kHops);
  }
  shard::ShardWorkload w;
  w.engine = std::move(engine);
  w.lp_checksum = [lps](LpId i) {
    return (*lps)[static_cast<std::size_t>(i)]->checksum;
  };
  return w;
}

}  // namespace

std::uint64_t golden_ring_checksum(std::int32_t threads,
                                   std::uint64_t* events,
                                   std::uint64_t* windows,
                                   std::int32_t shards) {
  if (shards > 1) {
    shard::ShardOptions so;
    so.shards = shards;
    const shard::ShardResult result =
        shard::run_sharded(so, [] { return build_ring(); });
    if (events != nullptr) *events = result.stats.total_events;
    if (windows != nullptr) *windows = result.stats.num_windows;
    return result.checksum;
  }

  shard::ShardWorkload w = build_ring();
  const RunStats stats =
      threads > 0 ? w.engine->run_threaded(threads) : w.engine->run();
  if (events != nullptr) *events = stats.total_events;
  if (windows != nullptr) *windows = stats.num_windows;

  std::uint64_t checksum = 0;
  for (LpId i = 0; i < w.engine->num_lps(); ++i) {
    checksum = checksum * 31 + w.lp_checksum(i);
  }
  return checksum;
}

}  // namespace massf
