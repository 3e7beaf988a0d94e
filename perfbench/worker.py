"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 [--spans PATH]

Runs every query of the workload's seeded list once, timing each one, and
checks each answer after its timing ends.  Prints one JSON object: per-query
latencies, failures, peak resident memory and, when traced, per-layer totals
(the spans themselves go to PATH).  run.py starts one of these per pass, so
no pass inherits another's memo tables.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import confgroups

import tracing
import workloads


def run_pass(ops, tr) -> dict:
    latencies: list[float] = []
    failures: list[str] = []
    for index, op in enumerate(ops):
        tr.op = index
        start = time.perf_counter()
        try:
            with tr.span("bench.op"):
                answer = op.run(tr, *op.inputs)
        except Exception as exc:  # a query that raises is a failed query, not a crash
            latencies.append(time.perf_counter() - start)
            failures.append(f"{op.kind} #{index}: raised {type(exc).__name__}: {exc}")
            continue
        latencies.append(time.perf_counter() - start)
        try:
            problem = op.check(answer, op.expected)
        except Exception as exc:  # an answer too malformed to check is a wrong answer
            problem = f"answer {answer!r} could not be checked: {type(exc).__name__}: {exc}"
        if problem:
            failures.append(f"{op.kind} #{index}: {problem}")
    return {"latencies": latencies, "failures": failures}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file for the pass's spans (traced passes)")
    args = parser.parse_args()

    src = Path(__file__).resolve().parents[1] / "src"
    if Path(confgroups.__file__).resolve().parent != src / "confgroups":
        print(f"worker: imported confgroups from {confgroups.__file__}, not {src}", file=sys.stderr)
        return 2
    tr = tracing.Tracer() if args.trace else tracing.NULL
    result = run_pass(workloads.ops(args.workload, args.seed), tr)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.trace:
        result["layers"] = tr.totals()
        if args.spans:
            tr.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
