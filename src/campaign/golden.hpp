// The pinned PDES calibration workload for campaign roll-ups.
//
// Mirrors the bench_pdes ring (lps=32, chain=64, hops=2000 — the workload
// behind BENCH_pdes.json and tests/pdes_golden_test.cpp): a ring of LPs
// forwarding hop events at exactly the lookahead, each hop spawning a
// same-window self-chain. The event-trace checksum folds every handled
// event's timestamp per LP and then across LPs, so any change to
// execution order, event count, or LP assignment moves it.
//
// A campaign with `golden 1` runs this once per distinct (threads, shards)
// combination and records the checksum in the roll-up; the nightly gate
// (scripts/check_bench.py --campaign) pins the expected value, putting
// the engine-determinism contract into every campaign artifact.
#pragma once

#include <cstdint>

namespace massf {

/// The expected checksum/events/windows of golden_ring_checksum, for
/// callers that gate on them (the authoritative pin stays in
/// tests/pdes_golden_test.cpp).
inline constexpr std::uint64_t kGoldenRingChecksum = 807988445054369792ULL;
inline constexpr std::uint64_t kGoldenRingEvents = 4162080ULL;
inline constexpr std::uint64_t kGoldenRingWindows = 2001ULL;

/// Runs the calibration workload under the given executor configuration
/// (threads <= 0 = sequential) and returns the trace checksum; `events` /
/// `windows` (optional) receive the run totals. shards > 1 runs the
/// multi-process executor (src/shard) instead — same checksum contract:
/// sequential, threaded, and sharded runs all produce the bit-identical
/// trace, so every configuration returns kGoldenRingChecksum.
std::uint64_t golden_ring_checksum(std::int32_t threads,
                                   std::uint64_t* events = nullptr,
                                   std::uint64_t* windows = nullptr,
                                   std::int32_t shards = 1);

}  // namespace massf
