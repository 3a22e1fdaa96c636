#!/usr/bin/env python3
"""Host-cost benchmark of dynfb: build, run one workload, report.

Run from the repository root:

    python3 hostbench/run.py --workload bh_dynamic --seed 42 --seconds 24 --trace 0
    python3 hostbench/run.py compare RESULT_A.json RESULT_B.json

The first form builds hostbench/ (and with it the dynfb libraries under
src/) into $CARGO_TARGET_DIR/hostbench, default .bench_build/hostbench,
runs the workload's passes for --seconds, checks every pass's simulated
output, prints one line per metric and, as the last line, the result as
JSON. With --trace 0 the metrics are the end-to-end ones; with --trace 1
they are the per-layer ones. The full record (build stamp, every pass,
the result) goes to <build>/results/. The second form compares two such
records and refuses when their build type or assertion state differ.
See hostbench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("bh_dynamic", "water_search", "replay_whatif", "paper_suite")

# Per-layer rows that partition a traced pass; other_s is the remainder.
ROWS = (
    "apps.create_s",
    "sim.begin_section_s",
    "sim.interval_s",
    "fb.self_s",
    "obs.build_trace_s",
    "obs.to_jsonl_s",
    "obs.to_chrome_s",
    "obs.parse_jsonl_s",
    "replay.replay_s",
    "replay.compare_s",
    "replay.explore_s",
    "exp.run_jobs_s",
    "exp.render_s",
    "exp.diff_s",
)
# exp.run_jobs_s split into the children's own time and the scheduler's.
SUB_ROWS = ("exp.job_s", "exp.overhead_s")
COUNTS = (
    "sim.intervals",
    "sim.micro_ops",
    "sim.iterations",
    "fb.sampled_intervals",
    "fb.decisions",
    "obs.jsonl_bytes",
)
SIDE = (
    "rt.emit_cold_s",
    "rt.emit_hit_s",
    "rt.emit_ops",
    "rt.emit_ns_per_op",
    "obs.collect_overhead",
    "obs.collect_base_s",
)
# A traced pass whose rows leave more than this share unexplained is
# reported on stderr.
OTHER_SHARE_LIMIT = 0.05


def fail(message, code=2):
    print(f"hostbench: {message}", file=sys.stderr)
    sys.exit(code)


def declared_metrics(trace):
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def build(build_dir):
    """Configures (once) and builds the hostbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no dynfb sources under {ROOT}/src; run from a full checkout")
    log = sys.stderr
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=log,
            stderr=log,
        )
        if rc != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc = subprocess.call(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "hostbench"],
        stdout=log,
        stderr=log,
    )
    if rc != 0:
        fail("build failed")
    return os.path.join(build_dir, "hostbench")


def git_describe():
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def load_reference(workload, seed):
    """The recorded outputs this run must reproduce, or None."""
    with open(os.path.join(BENCH_DIR, "reference.json")) as f:
        ref = json.load(f)[workload]
    if "seed" in ref and ref["seed"] != seed:
        return None
    return ref["outputs"]


def check_passes(passes, reference):
    """Marks each pass failed or not; returns the list of failure notes."""
    notes = []
    first = passes[0]["outputs"]
    for i, p in enumerate(passes):
        why = []
        if p["error"]:
            why.append(p["error"])
        if p["outputs"] != first:
            why.append("simulated outputs differ from the first pass")
        if reference is not None and p["outputs"] != reference:
            diff = sorted(k for k in set(reference) | set(p["outputs"])
                          if reference.get(k) != p["outputs"].get(k))
            why.append("outputs differ from the reference in " + ", ".join(diff))
        p["failed"] = bool(why)
        if why:
            kind = "traced" if p["traced"] else "untraced"
            notes.append(f"pass {i} ({kind}): " + "; ".join(why))
    return notes


def end_to_end(workload, plain, end):
    rss_kib = end["peak_child_rss_kib"] if workload == "paper_suite" else end["peak_rss_kib"]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "setup_s": statistics.median(p["setup_s"] for p in plain),
        "sim_mops_per_s": statistics.median(
            p["micro_ops"] / p["wall_s"] / 1e6 if p["wall_s"] else 0.0 for p in plain
        ),
        "peak_rss_mb": rss_kib / 1024.0,
    }


def per_layer(plain, traced, side):
    # The traced pass of median wall: its rows add up to its wall exactly.
    chosen = sorted(traced, key=lambda p: p["wall_s"])[(len(traced) - 1) // 2]
    rows = chosen["rows"]
    out = {name: rows.get(name, 0.0) for name in ROWS + SUB_ROWS}
    wall = chosen["wall_s"]
    out["other_s"] = wall - sum(rows.get(name, 0.0) for name in ROWS)
    out["traced_wall_s"] = wall
    for name in COUNTS:
        out[name] = chosen["counts"][name]
    ops = chosen["counts"]["sim.interval_ops"]
    interval = rows.get("sim.interval_s", 0.0)
    out["sim.ns_per_op"] = interval * 1e9 / ops if ops and interval else 0.0
    for name in SIDE:
        out[name] = side[name]
    out["trace_overhead"] = statistics.median(p["wall_s"] for p in traced) / statistics.median(
        p["wall_s"] for p in plain
    )
    return out


def run(args):
    if args.workload not in WORKLOADS:
        fail(f"unknown workload '{args.workload}' (known: {', '.join(WORKLOADS)})")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    build_dir = os.path.join(build_dir, "hostbench")
    binary = build(build_dir)

    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    records_path = os.path.join(results, stem + ".jsonl")
    if os.path.exists(records_path):
        os.remove(records_path)
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--root", ROOT,
        "--out", records_path,
    ]
    try:
        rc = subprocess.call(cmd, stdout=sys.stderr, timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        fail("the workload did not finish in time", 1)
    records = []
    if os.path.isfile(records_path):
        with open(records_path) as f:
            records = [json.loads(line) for line in f if line.strip()]
    kinds = {}
    for r in records:
        kinds.setdefault(r["kind"], []).append(r)
    passes = kinds.get("pass", [])
    if rc != 0 or "end" not in kinds or not passes:
        fail(f"the workload crashed (exit code {rc}) after {len(passes)} passes", 1)
    env, end = kinds["env"][0], kinds["end"][0]
    side = kinds.get("side", [{}])[0]

    reference = load_reference(args.workload, args.seed)
    notes = check_passes(passes, reference)
    if args.trace and side.get("self_check"):
        notes.append("self-check: " + side["self_check"])
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    failed = sum(p["failed"] for p in passes)

    metrics = per_layer(plain, traced, side) if args.trace else end_to_end(args.workload, plain, end)
    units = declared_metrics(args.trace)
    if set(metrics) != set(units):
        fail(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "build_type": env["build_type"],
        "assertions": env["assertions"],
        "compiler": env["compiler"],
        "git_describe": git_describe(),
        "build_hash": env["build_hash"],
        "nproc": os.cpu_count(),
        "reference_checked": reference is not None,
    }
    result = {
        "correct": not notes,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    with open(os.path.join(results, stem + ".json"), "w") as f:
        json.dump({"provenance": provenance, "result": result, "passes": passes}, f, indent=1)

    for note in notes:
        print(f"hostbench: FAILED {note}", file=sys.stderr)
    if args.trace:
        share = metrics["other_s"] / metrics["traced_wall_s"]
        if abs(share) > OTHER_SHARE_LIMIT:
            print(f"hostbench: note: other_s is {share:.1%} of the traced pass", file=sys.stderr)
    stamp = " ".join(f"{k}={v}" for k, v in provenance.items())
    print(f"provenance: {stamp}")
    for name, unit in units.items():
        print(f"  {name:<24} {metrics[name]:.6g} {unit}")
    walls = sorted(p["wall_s"] for p in plain)
    if not args.trace and len(walls) > 10:
        # Informational only: the highest percentile with ten passes beyond
        # it; runs of the slow workloads have too few passes for one.
        pct = 100.0 * (len(walls) - 10) / len(walls)
        print(f"  {'wall_s.tail':<24} {walls[-11]:.6g} s (p{pct:.0f} of {len(walls)} passes)")
    outputs = passes[0]["outputs"]
    for name in ("virt_vs_best_fixed", "virt_regret"):
        if name in outputs:
            print(f"  {name:<24} {outputs[name]:.6g} ratio (deterministic)")
    print(f"  {'fail_ratio':<24} {failed}/{len(passes)}")
    print(json.dumps(result))
    return 0


def compare(paths):
    if len(paths) != 2:
        fail("usage: run.py compare RESULT_A.json RESULT_B.json")
    files = []
    for path in paths:
        with open(path) as f:
            files.append(json.load(f))
    a, b = (f["provenance"] for f in files)
    for key in ("build_type", "assertions", "workload", "trace"):
        if a[key] != b[key]:
            fail(f"refusing to compare: {key} differs ({a[key]} vs {b[key]})")
    ma, mb = (f["result"]["metrics"] for f in files)
    print(f"{'metric':<24} {'A':>12} {'B':>12} {'B/A':>8}")
    for name in ma:
        if name not in mb:
            continue
        va, vb = ma[name]["value"], mb[name]["value"]
        ratio = vb / va if va else math.nan
        print(f"{name:<24} {va:12.6g} {vb:12.6g} {ratio:8.3f}")
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        return compare(sys.argv[2:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
