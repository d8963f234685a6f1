"""Smoke test of the benchmark itself, at a tiny size and with no timing gates.

    python3 bench/smoke.py            (or: python -m pytest bench/smoke.py)

For each workload it writes a config copy with one seed and a short horizon,
runs run.py on it untraced and traced, and asserts that the result line
names every metric of BENCHMARK.json with its unit, that no run failed, and
that the recorded spans form a well-nested tree under the command span. It
also checks that run.py refuses to run without the package beside it.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402

SMOKE_DIR = os.path.join(HERE, "_work", "smoke")
# Horizon in epochs per workload: a few snapshots each, seconds in total.
TINY_EPOCHS = {"toy_table": 2, "sweep_noise": 3, "eos": 3}
ROOT_SPANS = {"experiments.cmd", "config.parse_config"}


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def tiny_config(workload: str) -> str:
    with open(os.path.join(ROOT, "configs", f"{workload}.cfg"), encoding="utf-8") as fh:
        text = fh.read()
    text = re.sub(r"(?m)^seeds = .*$", "seeds = 0", text)
    text, n = re.subn(r"(?m)^optim\.epochs = .*$",
                      f"optim.epochs = {TINY_EPOCHS[workload]}", text)
    assert n == 1, f"{workload}.cfg has no optim.epochs line"
    os.makedirs(SMOKE_DIR, exist_ok=True)
    path = os.path.join(SMOKE_DIR, f"{workload}.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def run_bench(workload: str, trace: int, config: str | None = None,
              cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "0.1", "--trace", str(trace)]
    if config is not None:
        cmd += ["--config", config]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_workload(workload: str) -> None:
    config = tiny_config(workload)
    bench = _benchmark()
    for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
        proc = run_bench(workload, trace, config)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0, proc.stdout
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, (workload, trace, got, want)
        for name, m in result["metrics"].items():
            assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name

    work = os.path.join(HERE, "_work", workload)
    span_files = [f for f in os.listdir(work) if f.startswith("spans")]
    assert span_files, "traced pass wrote no spans"
    for name in span_files:
        doc = tracing.load_spans(os.path.join(work, name))
        tracing.check_tree(doc)
        roots = {doc["names"][s[0]] for s in doc["spans"] if s[3] == -1}
        assert roots == ROOT_SPANS, roots
        assert tracing.layer_stats(doc)["trajectory.recorder.calls"] > 0


def test_toy_table():
    check_workload("toy_table")


def test_sweep_noise():
    check_workload("sweep_noise")


def test_eos():
    check_workload("eos")


def test_refuses_without_package():
    bare = os.path.join(SMOKE_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run_bench("eos", 0, cwd=bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}"), proc.stdout


if __name__ == "__main__":
    for test in (test_toy_table, test_sweep_noise, test_eos,
                 test_refuses_without_package):
        test()
        print(f"{test.__name__}: ok")
