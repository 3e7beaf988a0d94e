"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q

They check the benchmark, not confgroups: a wrong expected answer is
counted, the same seed builds the same inputs, the tail percentile keeps 10
samples beyond it, and the independent oracle agrees with known facts.
"""

from __future__ import annotations

import itertools
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import confgroups as cg  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

HEAD = {"words_small_k": 60, "loops": 30, "presentations": 75}


def _fingerprint(op: workloads.Op) -> bytes:
    return repr((op.kind, op.inputs, op.expected)).encode()


def _head(workload: str, seed: int, count: int):
    return list(itertools.islice(workloads.ops(workload, seed), count))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_builds_byte_identical_inputs(workload):
    first = [_fingerprint(op) for op in _head(workload, 7, HEAD[workload])]
    second = [_fingerprint(op) for op in _head(workload, 7, HEAD[workload])]
    other = [_fingerprint(op) for op in _head(workload, 8, HEAD[workload])]
    assert first == second
    assert first != other


def _corrupt(op: workloads.Op) -> None:
    """Replace the expected answer with a wrong one of the same shape."""
    if isinstance(op.expected, bool):
        op.expected = not op.expected
    elif op.check is workloads.check_normalize:
        tag, k, (first, second) = op.expected
        op.expected = (tag, k, (first + 1, second))
    elif op.check is workloads.check_loop_braid:
        k, power = op.expected
        op.expected = (k, power + 2)
    else:
        op.expected = ("wrong",) + tuple(op.expected)[1:]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_wrong_expected_answer_is_counted_as_failed(workload):
    ops = _head(workload, 3, 2)
    assert worker.run_pass(ops, tracing.NULL)["failures"] == []
    _corrupt(ops[0])
    result = worker.run_pass(ops, tracing.NULL)
    assert len(result["failures"]) == 1
    assert len(result["failures"]) / len(result["latencies"]) > 0


def test_every_normalize_shape_is_checked():
    """A corrupted Garside form or (twist, perm) pair is caught for every tag."""
    for tag in workloads.BRAID_TAGS:
        op = workloads._word_op(random.Random(tag), tag, 4, "normalize", 60)
        answer = op.run(tracing.NULL, *op.inputs)
        assert op.check(answer, op.expected) is None
        _corrupt(op)
        assert op.check(answer, op.expected) is not None


@pytest.mark.parametrize("count", [11, 30, 31, 60, 75])
def test_tail_keeps_ten_samples_beyond_it(count):
    rng = random.Random(count)
    samples = [rng.expovariate(1.0) for _ in range(count)]
    value, percentile = run.tail(samples)
    assert sum(x > value for x in samples) == 10
    assert percentile == pytest.approx(100 * (count - 10) / count)


def test_tail_refuses_ten_or_fewer_samples():
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


def test_latencies_are_each_querys_upper_quartile_over_passes():
    passes = [{"latencies": [0.001] * 5 + [0.004] * 10, "peak_rss_kb": 2048},
              {"latencies": [0.003] * 5 + [0.002] * 10, "peak_rss_kb": 4096},
              {"latencies": [0.009] * 5 + [0.003] * 10, "peak_rss_kb": 4096}]
    units = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms", "peak_rss_mb": "MB"}
    metrics, note = run.end_to_end(passes, [0.2], units)
    # upper quartiles over the three passes: 0.009 for the first five
    # queries, 0.004 for the other ten
    assert metrics["ops_per_s"]["value"] == pytest.approx(15 / 0.085)
    assert metrics["latency_p50_ms"]["value"] == pytest.approx(4.0)
    assert metrics["latency_tail_ms"]["value"] == pytest.approx(4.0)
    assert metrics["peak_rss_mb"]["value"] == pytest.approx(4.0)
    assert note == {"percentile": pytest.approx(100 / 3), "samples_beyond": 10, "samples": 15}


def test_oracle_artin_action_decides_known_braid_identities():
    assert oracle.braids_equal([(1, 1), (2, 1), (1, 1)], [(2, 1), (1, 1), (2, 1)], 3)
    assert not oracle.braids_equal([(1, 1), (2, 1)], [(2, 1), (1, 1)], 3)
    assert not oracle.braids_equal([(1, 1), (1, 1)], [], 2)
    full_twist = [x for i, j in workloads._pairs(5) for x in oracle.pure_letters(i, j)]
    assert oracle.braids_equal(full_twist, oracle.power(oracle.staircase(5), 2), 5)


def test_by_program_joins_loops_as_confgroups_does():
    loop = cg.make_gamma_loop(2, 32)
    back = cg.reverse(loop)
    joined = cg.concatenate(cg.concatenate(loop, back), loop)
    assert np.array_equal(workloads.by_program(loop.frames, (1, -1, 1)), joined.frames)


def test_missing_package_source_exits_nonzero_without_a_result():
    """In a directory holding only BENCHMARK.json and perfbench/, run.py fails fast."""
    bare = ROOT / ".perfbench-out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "loops", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
