#!/usr/bin/env python3
"""The capclass benchmark: three seeded workloads, output gates, two kinds of metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it finds the checkout from its
own path and imports capclass only from the checkout's ``src``.

Workloads (closed loop, one client, one process at a time):

* ``verify-paper``: ``capclass verify-paper --json`` at a tenth of its
  default trial counts (``worker.VERIFY_ARGS``), run by a fresh worker
  process that calls the CLI's ``main``.  One operation is one such
  process, its start included.
* ``classify-d8``: a fresh process calls ``classify(8, 13)`` twice, cold
  then warm.  One operation is that pair of calls.  The first session
  of a run also hashes the output of ``capclass classify 8 13``.
* ``equiv-stream``: a fresh process builds a seeded stream of 240 cap
  pairs in AG(8,2) and AG(9,2) (see ``streams.py``) and decides each
  with ``find_isomorphism`` in a fork of its own, so every pair meets
  the caches as a fresh ``capclass equiv`` process does.  One operation
  is one pair.

Each workload repeats its unit of work while the next repetition is
expected to end within ``--seconds``; at least one always runs.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
of BENCHMARK.json.  Every time in it is calibrated to a nominal machine
speed by a reference loop timed while the operation runs
(``calibration.py``); the wall times are printed above the result line.
With ``--trace 1`` untraced sessions (three, or one on equiv-stream) and
one traced session run, and it carries the per-layer metrics, the
tracing overhead among them.  Every operation passes its output gate
(``golden.json``) before its time counts; a failed gate counts in
``failed`` and its time is dropped.  Exit code 2 means the checkout
holds no capclass source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from calibration import Timeline
from worker import ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 11
RUN_LIMIT_S = 170.0
# the traced run's overhead is its work time minus the median of this many
# untraced sessions; an equiv-stream session takes 25-35 s, so one fits
UNTRACED_SESSIONS = {"verify-paper": 3, "classify-d8": 3, "equiv-stream": 1}
SCRIPT_NOTE = (
    "scripts/benchmark.py labels some timings 'cold caches', but it takes them after earlier "
    "calls in the same process have warmed the caches: they are warm numbers"
)


class Run:
    """Outcome of one benchmark invocation: gated times, counts and samples."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.ops: list[float] = []  # calibrated times
        self.wall: list[float] = []  # the same, uncalibrated
        self.named: dict[str, list[float]] = {}

    def gate(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"gate failed: {what}", file=sys.stderr)
        return ok

    def note(self, name: str, value: float) -> None:
        self.named.setdefault(name, []).append(value)

    def child(self, argv: list[str], threads: str | None = None) -> tuple[int, bytes, float, float]:
        """Run argv from the checkout root; return exit code, stdout, start time and wall time."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.pop("CAPCLASS_THREADS", None)
        if threads is not None:
            env["CAPCLASS_THREADS"] = threads
        started = perf_counter()
        # its own process group, so that a timeout also stops the forks of an equiv-stream worker
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - started))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return -1, b"", started, perf_counter() - started
        return proc.returncode, out, started, perf_counter() - started


def worker(run: Run, *args: str, threads: str | None = None) -> tuple[dict | None, float, float]:
    """Run perfbench/worker.py; return its result object (None if it failed), its start time and wall time."""
    code, out, started, wall = run.child([sys.executable, str(HERE / "worker.py"), *args], threads)
    if code != 0 or not out.strip():
        return None, started, wall
    return json.loads(out.decode().splitlines()[-1]), started, wall


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


# -- gates: each returns True when the output matches the golden values


def counts_ok(run: Run, golden: dict, op: dict) -> bool:
    want = golden["classify_8_13_counts"]
    return run.gate(op.get("counts") == want, f"classify(8, 13) {op['op']} counts {op.get('counts')} != {want}")


def digest_ok(run: Run, golden: dict, op: dict) -> bool:
    want = golden["classify_8_13_sha256"]
    return run.gate(
        op["exit"] == 0 and op["stdout_sha256"] == want,
        f"capclass classify 8 13 exit {op['exit']}, sha256 {op['stdout_sha256']} != {want}",
    )


def session_ops(run: Run, golden: dict, workload: str, result: dict | None) -> list[dict | None]:
    """Gate every operation of one session; its timed operations in order, None where a gate failed."""
    if result is None:
        run.gate(False, f"{workload} worker exited without a result")
        return []
    ops = result["ops"]
    if workload == "verify-paper":
        op = ops[0]
        ok = run.gate(
            op["exit"] == 0 and op["all_passed"] is True and op["stdout_sha256"] == golden["verify_paper_json_sha256"],
            f"verify-paper exit {op['exit']}, all_passed {op['all_passed']}, sha256 {op['stdout_sha256']}",
        )
        return [op if ok else None]
    if workload == "classify-d8":
        # a byte drift in the CLI output voids the whole session's times
        timed = [op if counts_ok(run, golden, op) else None for op in ops if op["op"] != "digest"]
        digests = [digest_ok(run, golden, op) for op in ops if op["op"] == "digest"]
        return timed if all(digests) else [None] * len(timed)
    return [op if run.gate(op["ok"], f"equiv-stream pair n={op.get('n')} k={op.get('k')}") else None for op in ops]


# -- the two kinds of run


def setup_samples(run: Run, workload: str, seed: str) -> list[float]:
    """Calibrated set-up times of fresh processes; their uncalibrated times are noted as setup_wall_s."""
    timeline = Timeline()
    probes = []
    for _ in range(SETUP_PROBES):
        timeline.sample(3)
        result, started, _ = worker(run, "setup", workload, seed)
        if result is not None:
            probes.append((started, result["ready"]))
    timeline.sample(3)
    for started, ready in probes:
        run.note("setup_wall_s", ready - started)
    return [(ready - started) * timeline.factor(started, ready) for started, ready in probes]


def session(run: Run, golden: dict, workload: str, seed: str, *, digest: bool = False,
            threads: str | None = None, trace: Path | None = None) -> tuple[list[dict | None], dict | None]:
    """One fresh-process session; returns its gated operations and the worker's raw result."""
    args = ["session", workload, seed]
    if digest:
        args.append("--digest")
    if trace is not None:
        args += ["--trace", str(trace)]
    result, _, wall = worker(run, *args, threads=threads)
    if workload == "verify-paper" and result is not None and "factor" in result["ops"][0]:
        # the operation is the whole verify-paper process, its start included
        op = result["ops"][0]
        op["s"] = wall - op["sampled_s"]
        op["cal_s"] = op["s"] * op["factor"]
    return session_ops(run, golden, workload, result), result


def untraced(run: Run, golden: dict, workload: str, seed: str, seconds: float) -> dict[str, float]:
    setup = setup_samples(run, workload, seed)
    started = perf_counter()
    walls: list[float] = []
    while not walls or perf_counter() - started + max(walls) <= seconds:
        if perf_counter() + (max(walls) if walls else 0.0) > run.deadline:
            break
        unit_started = perf_counter()
        unit_seed = seed if not walls else f"{seed}.{len(walls)}"
        gated, raw = session(run, golden, workload, unit_seed, digest=workload == "classify-d8" and not walls)
        ops = [op for op in gated if op is not None]
        # the first session's CLI digest is not repeated, so it does not count towards the next unit's time
        digest_s = sum(op["s"] for op in raw["ops"] if op["op"] == "digest") if raw else 0.0
        walls.append(perf_counter() - unit_started - digest_s)
        if workload == "classify-d8":
            by_name = {op["op"]: op for op in ops}
            if "cold" in by_name and "warm" in by_name:
                for name in ("cold", "warm"):
                    run.note(f"classify_{name}_s", by_name[name]["s"])
                    run.note(f"classify_{name}_cal_s", by_name[name]["cal_s"])
                run.ops.append(by_name["cold"]["cal_s"] + by_name["warm"]["cal_s"])
                run.wall.append(by_name["cold"]["s"] + by_name["warm"]["s"])
        else:
            run.ops += [op["cal_s"] for op in ops]
            run.wall += [op["s"] for op in ops]
    metrics: dict[str, float] = {}
    if setup:
        metrics["setup_s"] = median(setup)
    if run.ops:
        metrics["op_p50_ms"] = percentile(run.ops, 0.5) * 1e3
        metrics["op_p90_ms"] = percentile(run.ops, 0.9) * 1e3
        metrics["ops_per_s"] = len(run.ops) / sum(run.ops)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return metrics


def traced(run: Run, golden: dict, workload: str, seed: str) -> dict[str, float]:
    """Untraced sessions, then a traced one, on the same inputs, all single-threaded."""
    digest = workload == "classify-d8"
    plain = [session(run, golden, workload, seed, digest=digest, threads="1")[1]
             for _ in range(UNTRACED_SESSIONS[workload])]
    trace_file = HERE / "out" / f"trace-{workload}-{seed}.json"
    _, result = session(run, golden, workload, seed, digest=digest, threads="1", trace=trace_file)
    if None in plain or result is None:
        return {}
    layers = dict(result["layers"])
    untraced_s = median(r["work_s"] for r in plain)
    layers["trace.untraced_s"] = untraced_s
    layers["trace.wall_s"] = result["work_s"]
    layers["trace.overhead_s"] = result["work_s"] - untraced_s
    print(f"spans written to {trace_file.relative_to(ROOT)}")
    return layers


# -- environment and report


def git_commit() -> str | None:
    """The checked-out commit, or None outside a git work tree."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def environment() -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    timeline = Timeline()
    timeline.sample(5)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "cpu_model": cpu or platform.processor() or None,
        # the calibration loop's time now; calibrated times assume 1e3 * calibration.NOMINAL_S
        "reference_loop_ms": timeline.reference_ms(),
        "note": SCRIPT_NOTE,
    }


def summary(run: Run, workload: str, metrics: dict[str, float]) -> list[str]:
    """The workload's metrics under the names users know them by, with units."""
    named = {name: median(values) for name, values in run.named.items()}
    rows = []
    if workload == "verify-paper" and run.ops:
        rows += [("verify_s", median(run.wall), "s"), ("verify_cal_s", median(run.ops), "s")]
    if workload == "classify-d8":
        rows += [(name, named[name], "s") for name in
                 ("classify_cold_s", "classify_warm_s", "classify_cold_cal_s", "classify_warm_cal_s") if name in named]
    if workload == "equiv-stream" and run.ops:
        rows += [("equiv_p50_ms", percentile(run.wall, 0.5) * 1e3, "ms"),
                 ("equiv_p90_ms", percentile(run.wall, 0.9) * 1e3, "ms"),
                 ("equiv_per_s", len(run.wall) / sum(run.wall), "1/s"),
                 ("equiv_cal_p50_ms", metrics["op_p50_ms"], "ms"), ("equiv_cal_p90_ms", metrics["op_p90_ms"], "ms"),
                 ("equiv_cal_per_s", metrics["ops_per_s"], "1/s"), ("equiv_pairs", len(run.ops), "count")]
    rows += [("setup_s", metrics.get("setup_s"), "s"), ("setup_wall_s", named.get("setup_wall_s"), "s"), ("peak_rss_mb", metrics.get("peak_rss_mb"), "MB"),
             ("error_rate", run.failed / max(1, run.attempted), "ratio")]
    return [f"  {name:<16} {value:.6g} {unit}" for name, value, unit in rows if value is not None]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="capclass benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "capclass" / "__init__.py").is_file():
        print(f"error: no capclass source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads((HERE / "golden.json").read_text())
    run = Run(perf_counter() + RUN_LIMIT_S)
    seed = str(args.seed)
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {seed} seconds {args.seconds:g} trace {args.trace}")
    if args.trace:
        values = traced(run, golden, args.workload, seed)
        wanted = spec["per_layer"]
        for item in wanted:
            if item["name"].startswith("classifier.phase.") and values:
                values.setdefault(item["name"], 0.0)
    else:
        values = untraced(run, golden, args.workload, seed, args.seconds)
        wanted = spec["end_to_end"]
        print("\n".join(summary(run, args.workload, values)))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in values}
    correct = run.failed == 0 and len(metrics) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
