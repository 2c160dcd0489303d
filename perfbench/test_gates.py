"""Self-check of the benchmark's output gates.

    python3 -m pytest -q perfbench/test_gates.py

A wrong expected count or digest must turn into a failed operation
whose time is dropped, never into a recorded time.  The end-to-end case
runs one classify-d8 session (about 15 s).
"""

from __future__ import annotations

import json
import random
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = HERE / "out" / "selfcheck"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402
import run  # noqa: E402
import streams  # noqa: E402
import worker  # noqa: E402

GOLDEN = json.loads((HERE / "golden.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, timeout=170,
    )
    lines = done.stdout.decode().splitlines()
    return done.returncode, json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def copy_benchmark(name: str) -> Path:
    """A scratch tree holding BENCHMARK.json and a copy of perfbench/, nothing else."""
    tree = SCRATCH / name
    shutil.rmtree(tree, ignore_errors=True)
    shutil.copytree(HERE, tree / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")
    return tree


def test_wrong_golden_values_fail_operations_instead_of_timing_them():
    tree = copy_benchmark("wrong-golden")
    (tree / "src").symlink_to(ROOT / "src", target_is_directory=True)
    wrong = dict(GOLDEN, classify_8_13_sha256="0" * 64, classify_8_13_counts={"9": 1, "10": 3})
    (tree / "perfbench" / "golden.json").write_text(json.dumps(wrong))
    code, result = bench("--workload", "classify-d8", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tree)
    assert code == 0
    # cold count, warm count and the CLI digest each fail once
    assert result["failed"] == 3 and result["attempted"] == 3
    assert result["correct"] is False
    assert not {"op_p50_ms", "op_p90_ms", "ops_per_s"} & set(result["metrics"])


def test_each_gate_rejects_a_wrong_output():
    r = run.Run(deadline=float("inf"))
    cold = {"op": "cold", "s": 1.0, "counts": GOLDEN["classify_8_13_counts"]}
    digest = {"op": "digest", "exit": 0, "stdout_sha256": GOLDEN["classify_8_13_sha256"]}
    assert run.session_ops(r, GOLDEN, "classify-d8", {"ops": [cold, digest]}) == [cold] and r.failed == 0
    drifted = dict(digest, stdout_sha256="f" * 64)
    assert run.session_ops(r, GOLDEN, "classify-d8", {"ops": [cold, drifted]}) == [None] and r.failed == 1
    verify = {"ops": [{"op": "verify", "s": 30.0, "exit": 0, "all_passed": True, "stdout_sha256": "e" * 64}]}
    assert run.session_ops(r, GOLDEN, "verify-paper", verify) == [None] and r.failed == 2
    failing = {"ops": [worker.verify_op(0, b'{"all_passed": false}')]}
    assert run.session_ops(r, GOLDEN, "verify-paper", failing) == [None] and r.failed == 3
    pairs = {"ops": [{"op": "pair", "s": 0.1, "ok": True}, {"op": "pair", "s": 0.2, "ok": False}]}
    gated = run.session_ops(r, GOLDEN, "equiv-stream", pairs)
    assert [op and op["s"] for op in gated] == [0.1, None] and r.failed == 4


def test_calibration_scales_by_the_reference_samples_near_an_operation():
    timeline = calibration.Timeline()
    nominal, window = calibration.NOMINAL_S, calibration.WINDOW_S
    # a machine at half speed around the first operation, at full speed around the second
    timeline.samples = [(0.0, 2 * nominal), (1.0, 2 * nominal), (10.0, nominal), (10.2, nominal)]
    assert timeline.factor(0.1, 0.9) == 0.5
    assert timeline.factor(10.05, 10.15) == 1.0
    # a sample just outside the window does not count
    assert timeline.factor(1.0 + window + 0.01, 9.99) == 1.0
    with pytest.raises(ValueError):
        timeline.factor(5.0, 6.0)
    timeline.sample(2)
    assert len(timeline.samples) == 6 and timeline.reference_ms() > 0


def test_sampler_takes_samples_inside_an_operation_and_removes_their_time():
    value, timing = worker.timed(True, lambda: sum(i * i for i in range(6_000_000)))
    assert value == sum(i * i for i in range(6_000_000))
    # one sample every INTERVAL_S; each takes a few ms of the operation
    assert 0 < timing["sampled_s"] < timing["s"]
    assert timing["cal_s"] == timing["s"] * timing["factor"]
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    _, plain = worker.timed(False, sum, range(10))
    assert set(plain) == {"s"}
    with pytest.raises(ValueError):
        calibration.Sampler().factor()


def test_map_check_and_negative_invariant_are_independent_of_capclass():
    rng = random.Random(3)
    a = streams.random_cap(rng, 8, 13)
    rows = (1, 2, 4, 8, 16, 32, 64, 128)
    image = tuple(sorted(streams.map_point(rows, 5, x) for x in a))
    assert streams.carries(rows, 5, 8, a, image)
    assert not streams.carries(rows, 4, 8, a, image)
    assert not streams.carries((1, 1) + rows[2:], 5, 8, a, image)
    assert streams.triple_sum_profile(a) == streams.triple_sum_profile(image)
    for k, reps in streams.D8_CLASSES.items():
        assert all(len(r) == k and streams.affine_rank(r) == 8 for r in reps)
        assert all(len({x ^ y for x in r for y in r if x < y}) == k * (k - 1) // 2 for r in reps)
        assert len({streams.triple_sum_profile(r) for r in reps}) == len(reps)
    stream = streams.build_stream(3)
    assert len(stream) == sum(pos + neg for _, _, pos, neg in streams.MIX)
    assert len({pair.a for pair in stream}) == len(stream)
    for pair in stream:
        same = streams.triple_sum_profile(pair.a) == streams.triple_sum_profile(pair.b)
        assert same or not pair.equivalent
        assert pair.equivalent or not same


def test_bare_benchmark_directory_exits_nonzero_without_a_result():
    bare = copy_benchmark("bare")
    code, result = bench("--workload", "equiv-stream", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    assert code != 0 and result is None


def test_raw_cache_growth_counts_across_a_clear():
    import types

    from tracing import Tracer

    tracer = Tracer()
    cache = dict.fromkeys(range(98))
    tracer._equivalence = types.SimpleNamespace(_RAW_FORM_CACHE=cache, _RAW_CACHE_LIMIT=100)
    tracer._raw_len = 90
    tracer._after_equivalence_entry((), None, None)
    assert tracer.count["raw_growth"] == 8
    # two more entries fill the cache, it is cleared, then five are added
    cache.clear()
    cache.update(dict.fromkeys(range(5)))
    tracer._after_equivalence_entry((), None, None)
    assert tracer.count["raw_growth"] == 8 + 2 + 5


def test_each_pair_meets_empty_caches_and_its_fork_reports_its_trace():
    import worker
    from tracing import Tracer

    capclass = worker.import_capclass()
    equivalence = capclass.equivalence
    stream = [pair for pair in streams.build_stream(5) if pair.n == 8 and len(pair.a) == 12][:2]
    tracer = Tracer()
    tracer.install()
    try:
        before = len(equivalence._NORM_FORM_CACHE)
        ops = [worker.decide_in_fork(capclass, pair, tracer) for pair in stream]
        metrics = Tracer.layer_metrics(tracer.harvest())
    finally:
        tracer.uninstall()
    assert all(op["ok"] for op in ops)
    # the forks filled their own caches, never this process's
    assert len(equivalence._NORM_FORM_CACHE) == before
    assert metrics["equivalence.find_isomorphism.self_s"] > 0
    assert metrics["decomp.basis_scan.calls"] == 4
    assert metrics["equivalence.norm_cache.misses"] > 0
