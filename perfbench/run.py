#!/usr/bin/env python3
"""End-to-end benchmark of the simulator: one named workload, from scenario
options to printed report (see README.md for workloads, metrics and checks).

    python3 perfbench/run.py --workload fig06-hprof --seed 2004 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds the
harness (harness.cpp, linked against ../src) under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
only re-check the build.

Prints the harness's report lines, the run facts, every metric by name with
its unit, and as the last line one JSON object {"correct", "attempted",
"failed", "metrics"}: BENCHMARK.json's end_to_end metrics with --trace 0,
its per_layer metrics with --trace 1. Output fingerprints and live rounds
are checked in the same command; on a failed check the JSON says
"correct": false and the exit code is 1. A build or harness failure exits
non-zero without a result line.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("fig06-hprof", "fig10-gridnpb", "hybrid-flaps", "online-live")
HARNESS_DEADLINE_S = 170  # after the build, which the first run pays


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures (first time) and builds the harness; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "perfbench_e2e", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail(f"build step failed: {' '.join(cmd)}")
    return build_dir / "perfbench_e2e"


def nearest_rank(values, p):
    s = sorted(values)
    k = max(1, -(-len(s) * p // 100))  # ceil(n * p / 100), at least 1
    return s[int(k) - 1]


def pinned_references(workload, smoke):
    if smoke or not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text()).get(workload, {})


def write_references(table):
    """reference.json: {workload: {network seed: fingerprint}}, one
    fingerprint per line."""
    blocks = []
    for workload in sorted(table):
        pins = table[workload]
        rows = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(pins[seed])}"
                          for seed in sorted(pins, key=int))
        blocks.append(f" {json.dumps(workload)}: {{\n{rows}\n }}")
    REFERENCE.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


def check(args, raw):
    """Returns (attempted, failed, problems)."""
    iters = raw["iterations"]
    if args.workload == "online-live":
        attempted = sum(it["rounds_attempted"] for it in iters)
        failed = sum(it["rounds_failed"] + it["violations"] for it in iters)
        problems = [f"{failed} live round(s) failed or timed out, or were "
                    "delivered before they were sent"] if failed else []
        return attempted, failed, problems
    pinned = pinned_references(args.workload, args.smoke)
    first_seen = {}
    failed, problems = 0, []
    for i, it in enumerate(iters):
        fp = it["fingerprint"]
        if args.perturb_fingerprint:
            fp = dict(fp, events=fp["events"] + 1)
        seed = str(it["seed"])
        refs = []
        if seed in pinned:
            refs.append(("the pinned reference", pinned[seed]))
        if it["reference_fingerprint"] is not None:
            refs.append(("the cross-executor run", it["reference_fingerprint"]))
        if seed in first_seen:
            refs.append(("the untraced run", first_seen[seed]))
        first_seen.setdefault(seed, fp)
        for what, ref in refs:
            if ref != fp:
                diff = sorted(k for k in ref if fp.get(k) != ref[k])
                problems.append(f"iteration {i} (network seed {seed}): "
                                f"fingerprint differs from {what} in "
                                f"{', '.join(diff)}")
        failed += any(ref != fp for _, ref in refs)
    return len(iters), failed, problems


def end_to_end(args, raw):
    """Every end-to-end value this run measured, from untraced iterations."""
    iters = [it for it in raw["iterations"] if not it["traced"]]
    med = lambda key: statistics.median(it[key] for it in iters)
    values = {
        "wall_s": med("wall_s"),
        "setup_s": med("setup_s"),
        "run_s": med("run_s"),
        "sim_rate_vs": statistics.median(it["vtime_s"] / it["run_s"]
                                         for it in iters),
        "modeled_T_s": med("modeled_T_s"),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    extra = {}
    if args.workload == "online-live":
        rtts = [x for it in iters for x in it["rtt_wall_ms"]]
        if rtts:
            extra["live_rtt_p50_ms"] = (statistics.median(rtts), "ms")
            extra["live_rtt_p90_ms"] = (nearest_rank(rtts, 90), "ms")
        extra["live_rounds"] = (len(rtts), "count")
    return values, extra


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=2004)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, no pinned references (self-test)")
    ap.add_argument("--perturb-fingerprint", action="store_true",
                    help="alter the measured fingerprints before the check "
                         "(self-test of the check)")
    ap.add_argument("--record-reference", action="store_true",
                    help="cross-check every network and pin each matching "
                         "fingerprint in reference.json")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if not SPEC.exists():
        fail(f"missing {SPEC}")
    spec = json.loads(SPEC.read_text())
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (build_dir / "perfbench").resolve()
    binary = build(build_dir)

    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds:g}", f"--trace={args.trace}"]
    if args.smoke:
        cmd.append("--smoke")
    if args.record_reference:
        cmd.append("--cross-check-all")
    trace_file = None
    if args.trace:
        trace_dir = build_dir / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_file = trace_dir / f"{args.workload}-{args.seed}.json"
        cmd.append(f"--trace-out={trace_file}")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_DEADLINE_S)
    except subprocess.TimeoutExpired:
        fail(f"harness did not finish within {HARNESS_DEADLINE_S} s", code=1)
    raw = None
    for line in done.stdout.splitlines():
        if line.startswith("PERFBENCH_RAW "):
            raw = json.loads(line[len("PERFBENCH_RAW "):])
        else:
            print(line)
    if done.returncode != 0 or raw is None:
        fail(f"harness exited with {done.returncode}", code=1)

    attempted, failed, problems = check(args, raw)
    for p in problems:
        print(f"CHECK FAILED: {p}")
    correct = not problems

    facts = dict(raw["facts"], workload=args.workload,
                 iterations=len(raw["iterations"]), trace=args.trace)
    print("facts: " + json.dumps(facts, sort_keys=True))
    values, extra = end_to_end(args, raw)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units.get(name, '')}")
    for name, (value, unit) in extra.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_share = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted})")

    if args.trace:
        listed, layers = spec["per_layer"], raw["layers"]
        missing = [m["name"] for m in listed if m["name"] not in layers]
        if missing:
            fail(f"harness did not report {', '.join(missing)}", code=1)
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in listed}
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
        print(f"spans written to {trace_file}")
    else:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    if args.record_reference and correct and not args.smoke \
            and args.workload != "online-live":
        table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        pins = table.setdefault(args.workload, {})
        for it in raw["iterations"]:
            if it["fingerprint"] == it["reference_fingerprint"]:
                pins[str(it["seed"])] = it["fingerprint"]
        write_references(table)

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
