"""One workload in its own process: set-up, timed pass, optional traced replay, checks.

Run by run.py; prints one JSON object as its last line of output.  With
--setup-only it stops after set-up and reports only the set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Whole cycles of the op list replayed under the tracer, fixed so that span
# counts depend only on the seed.
TRACED_CYCLES = {"queries": 5, "searches": 2, "cli": 2, "verify": 1}


def tail(sorted_ns: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least ten samples beyond it.

    Capped at p99.9, so that a few scheduler stalls in a long run do not set
    the value.  With fewer than twenty samples that percentile would lie at
    or below the median, so the maximum (p100) is reported instead.
    """
    n = len(sorted_ns)
    if n < 20:
        return 100.0, float(sorted_ns[-1])
    q = min(99.9, 100.0 * (n - 10) / n)
    idx = -(-int(q * n) // 100) - 1
    return q, float(sorted_ns[idx])


def latency_stats(samples_ns: list[float]) -> dict:
    s = sorted(samples_ns)
    q, t = tail(s)
    return {"p50_ms": statistics.median(s) / 1e6, "tail_ms": t / 1e6, "tail_percentile": q, "samples": len(s)}


def make_workload(name: str, seed: int, smoke: bool):
    import workloads as W

    if name == "cli":
        return W.Cli(seed, smoke, ROOT)
    if name == "verify":
        return W.Verify(smoke)  # the suites are fixed; the seed changes nothing
    return {"queries": W.Queries, "searches": W.Searches}[name](seed, smoke)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=tuple(TRACED_CYCLES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--inject-wrong", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    t0 = perf_counter()
    import fibtree

    if not os.path.abspath(fibtree.__file__).startswith(SRC + os.sep):
        print(f"error: fibtree imported from {fibtree.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    wl = make_workload(args.workload, args.seed, args.smoke)
    wl.setup()
    setup_s = perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from fibtree import goldring

    cache0 = goldring._fib_pair.cache_info()
    p = wl.timed_pass(args.seconds)
    cache1 = goldring._fib_pair.cache_info()
    lat = latency_stats(p.latencies_ns())
    result = {
        "workload": args.workload,
        "setup_s": setup_s,
        "ops": p.executed,
        "wall_s": p.wall_s,
        "ops_per_s": p.executed / p.wall_s,
        "passes": p.cycles,
        "pass_s": p.cycle_s,
        "latency": lat,
        "peak_rss_mb": p.peak_rss_mb,
    }
    if args.workload == "verify":
        result["verify_s"] = lat["p50_ms"] / 1e3

    if args.trace:
        result["layers"] = traced_layers(args, wl, p, cache0, cache1)

    verdicts = wl.check(p, args.inject_wrong)
    result.update(
        attempted=verdicts.attempted,
        failed=verdicts.failed,
        wrong=verdicts.wrong,
        failure_examples=verdicts.examples,
    )
    print(json.dumps(result))
    return 0


def traced_layers(args, wl, p, cache0, cache1) -> dict[str, float]:
    """Per-layer numbers: spans over a fixed replay, the fib cache, verify's checks, the CLI's parts."""
    from fibtree import goldring
    from tracer import SPAN_NAMES, Tracer

    cycles = 1 if args.smoke else TRACED_CYCLES[args.workload]
    layers: dict[str, float] = {}
    if args.workload == "verify":
        # The timed pass's median run.
        times = p.times[sorted(range(p.cycles), key=lambda i: p.cycle_s[i])[p.cycles // 2]]
        layers.update(verify_layers(wl, times))

    if args.workload == "cli":
        # The library runs in the CLI's child processes; its in-process twin stands in here.
        layers.update(cli_probes(wl))
        cache0 = goldring._fib_pair.cache_info()
        untraced = wl.in_process(cycles)
        cache1 = goldring._fib_pair.cache_info()
    else:
        # The timed pass's median cycle: caches are as warm as in the replay.
        untraced = cycles * statistics.median(p.cycle_s)
    hits = cache1.hits - cache0.hits
    misses = cache1.misses - cache0.misses
    layers["goldring.fib_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    layers["goldring.fib_cache.entries"] = cache1.currsize

    tracer = Tracer()
    tracer.install()
    try:
        traced = wl.replay(cycles)
    finally:
        tracer.uninstall()
    layers["trace.overhead_s"] = traced - untraced
    # Every traced run also times the CLI's parts, on this seed's CLI calls, and
    # the suites and checks of one untraced `verify --suite all`.
    if args.workload != "cli":
        layers.update(cli_probes(make_workload("cli", args.seed, args.smoke)))
    if args.workload != "verify":
        verifier = make_workload("verify", args.seed, args.smoke)
        layers.update(verify_layers(verifier, verifier.timed_run()[1]))
    totals = tracer.totals()
    for name in SPAN_NAMES:
        calls, self_s = totals[name]
        layers[f"{name}.calls"] = calls
        layers[f"{name}.self_s"] = self_s
    os.makedirs(OUT, exist_ok=True)
    tracer.write_spans(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    return layers


def verify_layers(wl, times: dict[str, float]) -> dict[str, float]:
    out = {f"verify.{suite}.s": times[f"suite:{suite}"] for suite in wl.suites}
    out.update({f"verify.{name}.s": times[name] for name in wl.check_names})
    return out


def cli_probes(wl) -> dict[str, float]:
    """Interpreter start, the import of fibtree.cli, and in-process `cli.run` per call."""

    def median_ms(cmd: list[str], runs: int = 7) -> float:
        times = []
        for _ in range(runs):
            t0 = perf_counter()
            subprocess.run(cmd, check=True, env=wl.env, cwd=wl.root, capture_output=True, timeout=60)
            times.append(perf_counter() - t0)
        return statistics.median(times) * 1e3

    bare = median_ms([sys.executable, "-c", "pass"])
    with_import = median_ms([sys.executable, "-c", "import fibtree.cli"])
    lat: list[int] = []
    wl.in_process(1, lat)
    return {
        "cli.interpreter_ms": bare,
        "cli.import_ms": with_import - bare,
        "cli.run_ms": statistics.median(lat) / 1e6,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
