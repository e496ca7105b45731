"""Benchmark of the three `qdg` commands, end to end and per layer.

    python3 perfbench/run.py [--workload verify|dims|nf|all] [--seed N]
        [--seconds S] [--trace 0|1]

Run from the repository root.  Each workload runs in a fresh process
(`workloads.py`); set-up is also timed in SETUP_SAMPLES further fresh
processes before that process and as many after it, and `setup_s` is the
median of all of them.  With one workload the last line
of standard output is a JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics of a traced run with `--trace 1`.  `--workload all`
prints a table of every metric instead.  Full results, with per-round
times and the traced spans, are written under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "workloads.py")
WORKLOADS = ("verify", "dims", "nf")
SETUP_SAMPLES = 2
WORKER_TIMEOUT = 170
OUT_DIR = ".bench_out"
END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "nf_p50_ms": "ms",
    "nf_p99_ms": "ms",
}


def _worker(args):
    """Run workloads.py in a fresh process; return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, WORKER] + args,
        stdout=subprocess.PIPE,
        env=env,
        timeout=WORKER_TIMEOUT,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("workloads.py %s exited with %d" % (" ".join(args), proc.returncode))
    return json.loads(lines[-1])


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    samples = 0 if trace else SETUP_SAMPLES
    setups = [_worker(common + ["--setup-only"])["setup_s"] for _ in range(samples)]
    raw = _worker(common + ["--seconds", str(seconds), "--trace", str(trace)])
    setups += [_worker(common + ["--setup-only"])["setup_s"] for _ in range(samples)]
    setups.append(raw["setup_s"])
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path, "w") as f:
        json.dump(dict(raw, setup_samples=setups), f, indent=1)
    if trace:
        metrics = {
            name: {"value": value, "unit": "s" if name.endswith("_s") or "_s." in name else "count"}
            for name, value in raw["layers"].items()
        }
    else:
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(wall * scale for wall, _, scale in raw["rounds"]),
            "cpu_s": statistics.median(cpu * scale for _, cpu, scale in raw["rounds"]),
            "peak_rss_mb": raw["peak_rss_mb"],
            "nf_p50_ms": raw["nf_p50_ms"],
            "nf_p99_ms": raw["nf_p99_ms"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    for problem in raw["problems"]:
        print("%s: %s" % (workload, problem), file=sys.stderr)
    return {
        "correct": not raw["problems"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "qdg", "cli.py")):
        print("run.py: no src/qdg here; run from the repository root", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run(args.workload, args.seed, args.seconds, args.trace)))
        return 0
    ok = True
    for workload in WORKLOADS:
        result = run(workload, args.seed, args.seconds, args.trace)
        ok = ok and result["correct"] and not result["failed"]
        print("== %s (trace %d): correct=%s attempted=%d failed=%d" % (
            workload, args.trace, result["correct"], result["attempted"], result["failed"]))
        for name, m in result["metrics"].items():
            value = m["value"]
            text = str(value) if isinstance(value, int) else "%.6g" % value
            print("  %-36s %14s %s" % (name, text, m["unit"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
