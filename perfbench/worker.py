"""One fresh benchmark process: a set-up probe or one measured session.

    python3 perfbench/worker.py setup WORKLOAD SEED
    python3 perfbench/worker.py session WORKLOAD SEED [--digest] [--trace FILE]

The worker imports capclass from the checkout's ``src`` and nothing
else, builds the workload's inputs from SEED, and prints one JSON object
as its last line.  It records raw outputs (counts, digests, verdicts);
``run.py`` compares them with the golden values and decides what counts.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

from calibration import Sampler, Timeline

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("verify-paper", "classify-d8", "equiv-stream")
# verify-paper at a tenth of its default trial counts (1000 fuzz maps,
# 10000 exchanges).  An operation takes 4 to 9 s instead of 25 to 35 s,
# so a 30 s run holds three to six and reports their median.  On a
# shared 2-vCPU Xeon one operation took up to twice as long as the next
# within a run.  The fuzz is still about two thirds of an operation.
VERIFY_ARGS = ["verify-paper", "--json", "--fuzz-trials", "100", "--exchange-trials", "1000"]


def import_capclass():
    """Import capclass from ROOT/src, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "capclass" / "__init__.py").is_file():
        raise SystemExit(f"worker: no capclass package under {src}")
    sys.path.insert(0, str(src))
    import capclass

    if Path(capclass.__file__).resolve().parent != (src / "capclass").resolve():
        raise SystemExit(f"worker: imported capclass from {capclass.__file__}, not {src}")
    import capclass.cli  # the CLI path is part of every workload's set-up

    return capclass


def cli_stdout(capclass, argv: list[str]) -> tuple[int, bytes]:
    """Run the capclass CLI in this process and capture its standard output."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = capclass.cli.main(argv)
    return code, buf.getvalue().encode("utf-8")


def build_inputs(workload: str, seed: str):
    if workload == "equiv-stream":
        import streams

        return streams.build_stream(seed)
    return None


def timed(calibrate: bool, fn, *args) -> tuple[object, dict]:
    """Call fn(*args); return its result and its timing.

    The timing holds ``s``, the call's time, and with ``calibrate`` also
    ``sampled_s``, the part of it the reference samples took (``s`` is
    without it), ``factor`` and the calibrated time ``cal_s``.  A traced
    session does not calibrate, so that no span holds a sample.
    """
    if not calibrate:
        started = perf_counter()
        value = fn(*args)
        return value, {"s": perf_counter() - started}
    with Sampler() as sampler:
        started = perf_counter()
        value = fn(*args)
        elapsed = perf_counter() - started
    s = elapsed - sampler.spent
    return value, {"s": s, "sampled_s": sampler.spent, "factor": sampler.factor(), "cal_s": s * sampler.factor()}


def verify_op(code: int, out: bytes) -> dict:
    """The verify-paper operation as the gate reads it, from the CLI's exit code and stdout."""
    try:
        passed = json.loads(out)["all_passed"]
    except (ValueError, KeyError, TypeError):
        passed = None
    return {"op": "verify", "exit": code, "all_passed": passed,
            "stdout_sha256": hashlib.sha256(out).hexdigest()}


def run_verify(capclass, calibrate: bool) -> dict:
    (code, out), timing = timed(calibrate, cli_stdout, capclass, VERIFY_ARGS)
    return {"ops": [dict(verify_op(code, out), **timing)]}


def run_classify(capclass, digest: bool, calibrate: bool) -> dict:
    ops = []
    for name in ("cold", "warm"):
        table, timing = timed(calibrate, capclass.classifier.classify, 8, 13)
        ops.append({"op": name, **timing, "counts": {str(k): v for k, v in table.counts().items()}})
    if digest:
        started = perf_counter()
        code, out = cli_stdout(capclass, ["classify", "8", "13"])
        ops.append({"op": "digest", "s": perf_counter() - started, "exit": code,
                    "stdout_sha256": hashlib.sha256(out).hexdigest()})
    return {"ops": ops}


def decide(capclass, pair) -> dict:
    """Time find_isomorphism on one pair and check its answer with the benchmark's own code."""
    import streams

    a = capclass.Cap(capclass.PointSet(pair.n, pair.a))
    b = capclass.Cap(capclass.PointSet(pair.n, pair.b))
    started = perf_counter()
    try:
        t = capclass.equivalence.find_isomorphism(a, b)
    except Exception:
        traceback.print_exc()
        return {"op": "pair", "s": perf_counter() - started, "ok": False}
    elapsed = perf_counter() - started
    if pair.equivalent:
        ok = t is not None and streams.carries(t.rows, t.translation, pair.n, pair.a, pair.b)
    else:
        ok = t is None
    return {"op": "pair", "s": elapsed, "ok": ok, "n": pair.n, "k": len(pair.a)}


def decide_in_fork(capclass, pair, tracer) -> dict:
    """Decide one pair in a forked child, which meets capclass's caches as a fresh process does."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        code = 1
        try:
            if tracer is not None:
                tracer.restart()
            op = decide(capclass, pair)
            if tracer is not None:
                op["trace"] = tracer.harvest()
            with os.fdopen(write, "w") as out:
                json.dump(op, out)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write)
    with os.fdopen(read) as inp:
        text = inp.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not text:
        return {"op": "pair", "s": 0.0, "ok": False}
    op = json.loads(text)
    if tracer is not None:
        tracer.absorb(op.pop("trace"))
    return op


def run_equiv(capclass, stream, tracer) -> dict:
    """Decide every pair of the stream in order, one at a time, each in its own fork.

    A reference sample precedes each pair and follows the last, so every
    pair also gets a time calibrated by the samples of the second around
    it (``cal_s``).
    """
    timeline = Timeline()
    ops, windows = [], []
    for pair in stream:
        timeline.sample()
        started = perf_counter()
        ops.append(decide_in_fork(capclass, pair, tracer))
        windows.append((started, perf_counter()))
    timeline.sample()
    for op, (started, ended) in zip(ops, windows):
        op["cal_s"] = op["s"] * timeline.factor(started, ended)
    return {"ops": ops}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "session"))
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("seed")
    parser.add_argument("--digest", action="store_true", help="also hash the CLI output (classify-d8)")
    parser.add_argument("--trace", type=Path, help="trace the session and write its spans here")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace is not None:
        from tracing import Tracer

        tracer = Tracer()
    capclass = import_capclass()
    if tracer is not None:
        tracer.install()
    inputs = build_inputs(args.workload, args.seed)
    ready = perf_counter()
    result: dict = {"ready": ready}
    if args.mode == "session":
        if args.workload == "verify-paper":
            result.update(run_verify(capclass, tracer is None))
        elif args.workload == "classify-d8":
            result.update(run_classify(capclass, args.digest, tracer is None))
        else:
            result.update(run_equiv(capclass, inputs, tracer))
        # without the calibration samples, which only untraced sessions take
        result["work_s"] = perf_counter() - ready - sum(op.get("sampled_s", 0.0) for op in result["ops"])
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(tracer.harvest())
        tracer.write(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
