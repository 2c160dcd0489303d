"""Time capclass commands end to end, cold and warm, and write BENCH_<short-sha>.json
into the current directory.

    python scripts/bench.py [--src DIR] [--command ARGS ...]

Each command is a capclass argument string.  The default set is
``verify-paper --json`` at its defaults and ``classify`` 7 13, 8 13 and
8 14.  For each command the script records:

- cold: RUNS fresh processes of ``python -m capclass.cli ARGS``, each timed
  from outside, so interpreter start and import count;
- warm: one fresh process that runs ``capclass.cli.main`` once to fill
  its caches, then RUNS more times, each call timed inside the process;
- the median, minimum and maximum of each, the peak RSS of the cold
  processes and of the warm one, and the sha256 of stdout, which must be
  the same in every run.

``--src DIR`` times the checkout at DIR (its ``src/``) rather than this
one, so two commits can be timed by one script on one machine.  The file
also names the Python version, the CPU and the commit of DIR, with
``-dirty`` when its work tree differs from that commit.  The script
exits 1 if a run fails or two runs print different bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("verify-paper --json", "classify 7 13", "classify 8 13", "classify 8 14")
RUNS = 5  # cold processes and warm calls per command

# run in the warm process: argv, then the number of timed calls
WARM = """
import contextlib, hashlib, io, json, resource, sys, time
from capclass.cli import main
argv, runs = sys.argv[2:], int(sys.argv[1])
times, digests = [], set()
for i in range(runs + 1):
    out = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    elapsed = time.perf_counter() - started
    if code:
        sys.exit(f"exit {code}")
    digests.add(hashlib.sha256(out.getvalue().encode()).hexdigest())
    times += [elapsed] if i else []
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"times": times, "digests": sorted(digests), "peak_kb": peak_kb}))
"""


def spread(times: list[float]) -> dict:
    """Median, minimum and maximum of the timings, and the timings in run order."""
    return {"median": statistics.median(times), "min": min(times), "max": max(times), "runs": times}


def cold_run(argv: list[str], src: Path, env: dict) -> tuple[float, str, int]:
    """One fresh process: (wall seconds, stdout sha256, peak RSS in KiB); RuntimeError if it fails."""
    with tempfile.TemporaryFile() as out:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "capclass.cli", *argv], cwd=src, env=env, stdout=out)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            raise RuntimeError(f"capclass {shlex.join(argv)} exited {proc.returncode}")
        out.seek(0)
        return wall, hashlib.sha256(out.read()).hexdigest(), usage.ru_maxrss


def warm_run(argv: list[str], src: Path, env: dict) -> dict:
    """One fresh process that runs the command RUNS + 1 times: its timed calls, digests and peak RSS."""
    cmd = [sys.executable, "-c", WARM, str(RUNS), *argv]
    done = subprocess.run(cmd, cwd=src, env=env, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"warm capclass {shlex.join(argv)} failed: {done.stderr.strip()}")
    return json.loads(done.stdout)


def bench(command: str, src: Path) -> dict:
    """Cold and warm timings of one capclass command run from src."""
    argv = shlex.split(command)
    env = dict(os.environ, PYTHONPATH=str(src / "src"))
    cold = [cold_run(argv, src, env) for _ in range(RUNS)]
    warm = warm_run(argv, src, env)
    digests = {digest for _, digest, _ in cold} | set(warm["digests"])
    if len(digests) != 1:
        raise RuntimeError(f"capclass {command} printed different bytes across runs")
    return {
        "command": command,
        "stdout_sha256": digests.pop(),
        "cold_s": spread([wall for wall, _, _ in cold]),
        "warm_s": spread(warm["times"]),
        "cold_peak_rss_mb": max(kb for _, _, kb in cold) / 1024,
        "warm_peak_rss_mb": warm["peak_kb"] / 1024,
    }


def commit(src: Path) -> str:
    """The short commit of src, with -dirty for changes to tracked files;
    "unknown" when src is not the top of a git work tree."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "--short=7", "HEAD"], cwd=src, capture_output=True, text=True
        )
        dirty = subprocess.run(["git", "diff", "--quiet", "HEAD"], cwd=src, capture_output=True)
    except OSError:
        return "unknown"
    lines = head.stdout.split()
    if head.returncode or len(lines) != 2 or Path(lines[0]).resolve() != src:
        return "unknown"
    return lines[1] + ("-dirty" if dirty.returncode else "")


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Time capclass commands cold and warm; write BENCH_<short-sha>.json.")
    parser.add_argument("--src", type=Path, default=ROOT, help="the checkout to time (default: this one)")
    parser.add_argument("--command", action="append", help="a capclass argument string; repeat for more")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "src" / "capclass" / "cli.py").is_file():
        parser.error(f"--src {src} holds no src/capclass/cli.py")
    try:
        results = [bench(command, src) for command in args.command or COMMANDS]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sha = commit(src)
    report = {
        "schema": "bench v1",
        "commit": sha,
        "src": str(src),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "runs": RUNS,
        "commands": results,
    }
    path = Path(f"BENCH_{sha}.json")
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for r in results:
        print(f"{r['command']}: cold median {r['cold_s']['median']:.3f} s, warm median {r['warm_s']['median']:.3f} s")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
