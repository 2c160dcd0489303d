"""scripts/bench.py times a command cold and warm and writes one BENCH_<short-sha>.json."""

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tiny_workload_writes_the_schema(tmp_path, source_cli):
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), "--command", "classify 3 5"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stderr
    path, = tmp_path.glob("BENCH_*.json")
    assert done.stdout.splitlines()[-1] == path.name
    report = json.loads(path.read_text(encoding="utf-8"))
    assert path.name == f"BENCH_{report['commit']}.json"
    assert report["schema"] == "bench v1" and report["runs"] == 5 and report["src"] == str(ROOT)
    assert {"python", "cpu", "nproc"} < report.keys()
    entry, = report["commands"]
    assert entry["command"] == "classify 3 5"
    for phase in ("cold_s", "warm_s"):
        t = entry[phase]
        assert len(t["runs"]) == 5 and t["min"] <= t["median"] <= t["max"] and t["min"] > 0
    assert entry["cold_peak_rss_mb"] > 1 and entry["warm_peak_rss_mb"] > 1
    # the digest is that of the command's own stdout
    prefix, env = source_cli
    out = subprocess.run([*prefix, "classify", "3", "5"], env=env, capture_output=True, check=True).stdout
    assert entry["stdout_sha256"] == hashlib.sha256(out).hexdigest()
    # about 1.2 s on a 2-vCPU Xeon; the bound only catches the default commands running instead
    assert elapsed < 10


def test_a_failing_command_exits_1(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), "--command", "template NO_SUCH"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 1
    # the command's own error line comes first
    assert done.stderr.splitlines()[-1] == "error: capclass template NO_SUCH exited 2"
    assert not list(tmp_path.iterdir())
