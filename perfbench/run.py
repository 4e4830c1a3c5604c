"""fibtree benchmark: one seeded, closed-loop workload per run, checked and reported.

    python3 perfbench/run.py --workload searches --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the library is imported from ./src.
Set-up is timed in fresh processes, SETUP_RUNS before the workload and
SETUP_RUNS after it, and reported as their median; the workload runs in
one more fresh process, driven by one client with no threads and at most
one subprocess at a time.  The last line of output is a JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  The lines above
it are a readable report, also written to perfbench/out/.  --smoke
shrinks every input for the benchmark's own tests.  See README.md in
this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from tracer import SPAN_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("queries", "searches", "verify", "cli")
# Set-ups are taken on both sides of the timed pass: the machine's speed
# drifts in spells of seconds to minutes, and one burst of set-ups would
# sample a single spell.
SETUP_RUNS = 3
RUN_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}

# The six suites of `fibtree verify` and their 22 checks, named here so that
# the metric list does not depend on importing the code under test.
VERIFY_CHECKS = {
    "labels": ("check_consecutive_labels", "check_worked_example"),
    "wythoff": ("check_table_fixture", "check_wythoff_identities", "check_complementarity", "check_gold_sign_oracle"),
    "group": ("check_group_laws", "check_superposition"),
    "represent": (
        "check_classification", "check_interval_levels", "check_find_sequence",
        "check_zero_occurrences", "check_lemma_witnesses",
    ),
    "order": (
        "check_order_brute_force", "check_order_antisymmetry", "check_self_containment",
        "check_order_map_consistency", "check_lub", "check_commutator", "check_order_sum_incompatibility",
    ),
    "array": ("check_hofstadter", "check_wythoff_array"),
}


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["goldring.fib_cache.hit_ratio"] = "ratio"
    units["goldring.fib_cache.entries"] = "count"
    for suite, checks in VERIFY_CHECKS.items():
        units[f"verify.{suite}.s"] = "s"
        for check in checks:
            units[f"verify.{check}.s"] = "s"
    units["cli.interpreter_ms"] = "ms"
    units["cli.import_ms"] = "ms"
    units["cli.run_ms"] = "ms"
    units["trace.overhead_s"] = "s"
    return units


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def context(seed: int, trace: int) -> dict:
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines(),
        "trace": trace,
    }


def worker(extra: list[str]) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("FIBTREE_MAX_LEVEL", None)
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(extra)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args) -> dict:
    common = ["--workload", args.workload, "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    runs = 1 if args.smoke else SETUP_RUNS
    setups = [worker(common + ["--setup-only"])["setup_s"] for _ in range(runs)]
    res = worker(
        common
        + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        + (["--inject-wrong"] if args.inject_wrong else [])
    )
    setups += [worker(common + ["--setup-only"])["setup_s"] for _ in range(runs)]
    res["setup_s_runs"] = setups
    res["setup_s"] = statistics.median(setups)
    return res


def result_line(res: dict, trace: int) -> dict:
    if trace:
        metrics = {name: {"value": res["layers"].get(name, 0), "unit": unit} for name, unit in per_layer_units().items()}
    else:
        values = {
            "setup_s": res["setup_s"],
            "ops_per_s": res["ops_per_s"],
            "latency_p50_ms": res["latency"]["p50_ms"],
            "latency_tail_ms": res["latency"]["tail_ms"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {"correct": res["wrong"] == 0, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}


def report_lines(res: dict, ctx: dict) -> list[str]:
    lat = res["latency"]
    lines = [
        f"workload {res['workload']}  seed {ctx['seed']}  python {ctx['python']}  nproc {ctx['nproc']}"
        f"  src_lines {ctx['src_lines']}  trace {ctx['trace']}",
        f"  setup_s          {res['setup_s']:.6f} s   (median of {len(res['setup_s_runs'])} fresh processes)",
        f"  ops_per_s        {res['ops_per_s']:.6f} ops/s   ({res['ops']} ops in {res['passes']} passes)",
        f"  latency_p50_ms   {lat['p50_ms']:.6f} ms",
        f"  latency_tail_ms  {lat['tail_ms']:.6f} ms   (p{lat['tail_percentile']:.2f} of {lat['samples']} samples)",
    ]
    if "verify_s" in res:
        lines.append(f"  verify_s         {res['verify_s']:.6f} s   (median of {res['passes']} runs of all six suites)")
    lines += [
        f"  failed_ratio     {res['failed'] / res['attempted']:.6f} fraction   ({res['failed']} of {res['attempted']})",
        f"  peak_rss_mb      {res['peak_rss_mb']:.3f} MiB",
    ]
    lines += [f"  failure: {ex[:160]}" for ex in res["failure_examples"][:5]]
    if "layers" in res:
        layers = res["layers"]
        lines.append("  per-layer, from a traced replay: calls, self time")
        for name, unit in per_layer_units().items():
            if name.endswith(".calls"):
                base = name[: -len(".calls")]
                lines.append(f"    {base:40s} {layers[name]:>10d} {layers[base + '.self_s']:12.6f} s")
            elif not name.endswith(".self_s"):
                lines.append(f"    {name:40s} {layers.get(name, 0):>23.6f} {unit}")
    return lines


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="toy-size inputs, for the benchmark's own tests")
    ap.add_argument("--inject-wrong", action="store_true", help="corrupt one oracle answer (tests only)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fibtree", "__init__.py")):
        print(f"error: no fibtree sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    res = run_workload(args)
    ctx = context(args.seed, args.trace)
    line = result_line(res, args.trace)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"context": ctx, "run": res, "result": line}, fh, indent=1)
    print("\n".join(report_lines(res, ctx)))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
