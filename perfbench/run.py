"""Benchmark of confgroups: word problems, sampled loops and presentations.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

BENCHMARK.json names the workloads and metrics.  A pass runs the workload's
seeded list of queries once, in a fresh interpreter (perfbench/worker.py),
so no pass inherits another's memo tables.  Passes repeat while the next one
fits in --seconds; at least one runs.  A query's latency is the upper
quartile of its times over the run's passes (see end_to_end).  With
--trace 0 the last line of output reports the end-to-end metrics; with
--trace 1 traced and untraced passes alternate, the last line reports the
per-layer metrics of the traced ones, and trace.overhead_frac compares the
two kinds.  Each run writes a record, and
each traced pass its spans, under .perfbench-out/.

Exit status: 0 when every answer is right, 1 when any is wrong, 2 when the
package source (src/confgroups) is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
# one client and no extra threads: numpy's BLAS stays single-threaded
BLAS_THREADS = 1
SETUP_REPEATS = 7
WORKER_TIMEOUT_S = 170
# prints the in-process import time of confgroups and the numpy version
IMPORT_CODE = (
    "import time; t = time.perf_counter(); import confgroups; "
    "t = time.perf_counter() - t; import numpy; print(t, numpy.__version__)"
)


def environment() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def fresh_interpreter(code: str, env: dict[str, str]) -> tuple[float, str]:
    """Wall time of a new interpreter running code, and what it printed."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return time.perf_counter() - start, done.stdout


def run_pass(workload: str, seed: int, traced: bool, index: int, env: dict[str, str]) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(int(traced))]
    if traced:
        cmd += ["--spans", str(OUT / f"spans-{workload}-seed{seed}-pass{index}.jsonl")]
    done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited {done.returncode}: {done.stderr.strip()[-3000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with 10 samples beyond it: (value, percentile)."""
    if len(samples) <= 10:
        raise ValueError(f"a tail needs more than 10 samples, got {len(samples)}")
    return sorted(samples)[-11], 100 * (len(samples) - 10) / len(samples)


def upper_quartile(samples) -> float:
    return statistics.quantiles(samples, n=4)[2] if len(samples) > 1 else samples[0]


def end_to_end(passes: list[dict], setup_walls: list[float], units: dict[str, str]):
    """A query's latency is the upper quartile of its times over the run's passes.

    Every pass runs the same queries from a cold start.  On a shared
    machine the speed of the processor shifts by up to half, in spells from
    a fraction of a second to minutes, and the share of time spent in the
    faster spells drifts.  A query's median, mean or best time follows that
    share; its upper quartile stays at the slower, more usual speed unless
    faster spells fill three quarters of the run.
    """
    typical = [upper_quartile(times) for times in zip(*(p["latencies"] for p in passes))]
    tail_s, percentile = tail(typical)
    values = {
        "ops_per_s": len(typical) / sum(typical),
        "latency_p50_ms": 1000 * statistics.median(typical),
        "latency_tail_ms": 1000 * tail_s,
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024,
        "setup_s": statistics.median(setup_walls),
    }
    tail_note = {"percentile": percentile, "samples_beyond": 10, "samples": len(typical)}
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}, tail_note


def per_layer(traced: list[dict], untraced: list[dict], cli: dict[str, float], units: dict[str, str]):
    """Per-pass means over the traced passes; absent spans and counters are 0."""
    values = {name: statistics.fmean(p["layers"].get(name, 0.0) for p in traced) for name in units}
    values.update(cli)
    busy = statistics.fmean(sum(p["latencies"]) for p in traced)
    idle = statistics.fmean(sum(p["latencies"]) for p in untraced)
    values["trace.overhead_frac"] = busy / idle - 1
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def src_lines() -> int:
    return sum(len(f.read_text(encoding="utf-8").splitlines()) for f in (SRC / "confgroups").glob("*.py"))


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "confgroups" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    env = environment()
    OUT.mkdir(exist_ok=True)

    fresh_interpreter(IMPORT_CODE, env)  # compile bytecode and fill the page cache first
    setup = [fresh_interpreter(IMPORT_CODE, env) for _ in range(SETUP_REPEATS)]
    setup_walls = [wall for wall, _ in setup]
    numpy_version = setup[0][1].split()[1]

    passes: list[tuple[bool, dict]] = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        began = time.perf_counter()
        passes.append((traced, run_pass(args.workload, args.seed, traced, len(passes), env)))
        took = time.perf_counter() - began
        both_kinds = not args.trace or len(passes) >= 2
        if both_kinds and time.perf_counter() - start + took > args.seconds:
            break
    untraced = [p for t, p in passes if not t]
    traced = [p for t, p in passes if t]

    if args.trace:
        cli = {
            "cli.import_s": statistics.median(float(out.split()[0]) for _, out in setup),
            "cli.interpreter_s": statistics.median(
                fresh_interpreter("pass", env)[0] for _ in range(SETUP_REPEATS)),
        }
        metrics = per_layer(traced, untraced, cli, {m["name"]: m["unit"] for m in spec["per_layer"]})
        tail_note = None
    else:
        metrics, tail_note = end_to_end(
            untraced, setup_walls, {m["name"]: m["unit"] for m in spec["end_to_end"]})

    failures = [msg for _, p in passes for msg in p["failures"]]
    attempted = sum(len(p["latencies"]) for _, p in passes)
    meta = {
        "python": platform.python_version(), "numpy": numpy_version, "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS, "src_confgroups_lines": src_lines(),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "meta": meta, "passes": len(passes), "queries_per_pass": len(untraced[0]["latencies"]),
        "tail": tail_note, "failures": failures, "metrics": metrics,
        "pass_peak_rss_kb": [p["peak_rss_kb"] for _, p in passes],
        "pass_busy_s": [sum(p["latencies"]) for _, p in passes],
        "setup_walls_s": setup_walls,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    for msg in failures:
        print(f"WRONG {msg}")
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes of "
          f"{record['queries_per_pass']} queries, {attempted} attempted, {len(failures)} failed, "
          f"failed_frac {len(failures) / attempted:g}")
    if tail_note:
        print(f"latency_tail_ms is p{tail_note['percentile']:.1f} of the {tail_note['samples']} "
              f"per-query upper-quartile times over {len(passes)} passes, "
              f"{tail_note['samples_beyond']} samples beyond it")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print("meta " + " ".join(f"{k}={v}" for k, v in meta.items()))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
