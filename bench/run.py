"""trajbound benchmark: shipped experiments timed end to end, layers traced.

    python3 bench/run.py --workload {toy_table,sweep_noise,eos} [--seed N]
                         [--seconds S] [--trace 0|1] [--config PATH]

Closed loop, one client: this process starts one fresh single-threaded
experiment process at a time and waits for it. Each run process times one
call of the experiment command; separate set-up processes time interpreter
start, import, config parsing and run assembly. Every run's outputs are
checked (check.py). With --trace 1 the runs alternate untraced and traced
(tracing.py) and the per-layer metrics are reported instead.

Workload seed N runs the config's k seeds as N*k .. N*k+k-1, so seed 0 (the
default) is the shipped seed set, checked against reference/. eos always runs
its shipped seeds: its cost is set by how fast power iteration converges,
which varies 5x between seeds (2 730 to 15 051 operator applications over
seeds 0-27), so a seeded eos would time the seed rather than the code.

The last stdout line is one JSON object with keys correct, attempted, failed
and metrics; the lines before it list every metric with its unit, the
failure fraction and the environment. Everything is written under
bench/_work/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import check
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("toy_table", "sweep_noise", "eos")
# Workloads whose inputs stay the shipped ones whatever the workload seed.
FIXED_INPUT = {"eos"}
BLAS_THREADS = "1"
MIN_SETUP_SAMPLES = 9
# A run must end within 180 s; no child process may outlive this budget.
DEADLINE_S = 165.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "optim.step.calls": "count",
    "optim.step.busy_s": "s",
    "optim.step.self_s": "s",
    "optim.train.busy_s": "s",
    "optim.train.self_s": "s",
    "models.per_sample_grads.S.busy_s": "s",
    "models.per_sample_grads.Sprime.busy_s": "s",
    "models.per_sample_grads.rows": "rows",
    "models.per_sample_grads.bytes": "bytes",
    "models.grad_mean_xy.calls": "count",
    "models.grad_mean_xy.busy_s": "s",
    "models.losses_batch.calls": "count",
    "models.losses_batch.busy_s": "s",
    "models.hessian_vector_product.calls": "count",
    "models.hessian_vector_product.busy_s": "s",
    "trajectory.recorder.calls": "count",
    "trajectory.recorder.busy_s": "s",
    "trajectory.recorder.self_s": "s",
    "trajectory.signed_mean_norm_stats.busy_s": "s",
    "trajectory.subset_ratio_max.busy_s": "s",
    "bounds.estimate_constants.calls": "count",
    "bounds.estimate_constants.busy_s": "s",
    "bounds.estimate_constants.self_s": "s",
    "bounds.report.busy_s": "s",
    "numerics.power_iteration.solves": "count",
    "numerics.power_iteration.busy_s": "s",
    "numerics.power_iteration.applies": "count",
    "numerics.power_iteration.capped": "count",
    "config.parse_config.busy_s": "s",
    "data.generate_toy.busy_s": "s",
    "experiments.assemble_run.calls": "count",
    "experiments.assemble_run.busy_s": "s",
    "experiments.cmd.self_s": "s",
    "experiments.out.bytes": "bytes",
    "trace.overhead_frac": "frac",
    "host.calib_s": "s",
}


class Session:
    """One benchmark run: spawns the child processes and collects samples."""

    def __init__(self, workload: str, config_path: str, seeds: list[int],
                 full_check: bool, work_dir: str):
        self.workload = workload
        self.config_path = config_path
        self.seeds = seeds
        self.seed_arg = ",".join(str(s) for s in seeds)
        self.full_check = full_check
        self.work_dir = work_dir
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
                        PYTHONHASHSEED="0", PYTHONPATH=os.path.join(ROOT, "src"))
        self.attempted = 0
        self.errors: list[str] = []
        self.runs = 0
        self.deadline = time.monotonic() + DEADLINE_S

    def _child(self, *args: str) -> dict | None:
        """Run child.py once; its JSON result, or None after recording why."""
        self.attempted += 1
        budget = self.deadline - time.monotonic()
        try:
            if budget <= 0:
                raise subprocess.TimeoutExpired(args[0], 0)
            proc = subprocess.run([sys.executable, CHILD, *args], env=self.env,
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=budget)
        except subprocess.TimeoutExpired:
            self.errors.append(f"{args[0]}: over the {DEADLINE_S} s run budget")
            return None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
            self.errors.append(f"{args[0]}: exit {proc.returncode}: {tail[0]}")
            return None
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            self.errors.append(f"{args[0]}: no result line in {proc.stdout[-200:]!r}")
            return None

    def setup(self) -> float | None:
        result = self._child("setup", self.workload, self.config_path,
                             self.seed_arg, repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
        return None if result is None else result["setup_s"]

    def run(self, traced: bool) -> dict | None:
        """One experiment process; its result with the outputs checked."""
        self.runs += 1
        out_dir = os.path.join(self.work_dir, f"run{self.runs}")
        args = ["run", self.workload, self.config_path, self.seed_arg, out_dir]
        if traced:
            spans_path = os.path.join(self.work_dir, f"spans{self.runs}.json")
            args += [spans_path, f"{self.workload}-{self.seed_arg}-{os.getpid()}"]
        result = self._child(*args)
        if result is None:
            return None
        try:
            check.check_outputs(self.workload, self.config_path, self.seeds,
                                out_dir, self.full_check)
            if traced:
                doc = tracing.load_spans(spans_path)
                tracing.check_tree(doc)
                result["layers"] = tracing.layer_stats(doc)
                result["layers"]["experiments.out.bytes"] = sum(
                    os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))
        except (check.CheckError, KeyError, ValueError, OSError) as exc:
            self.errors.append(f"run {self.runs}: {exc}")
        return result


def tail_percentile(samples: list[float]) -> str:
    """The highest percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return f"no percentile has 10 samples above it at n={n}"
    q = math.floor(100 * (1 - 10 / n))
    value = sorted(samples)[max(0, math.ceil(q / 100 * n) - 1)]
    return f"p{q}={value!r} (n={n})"


def measure(session: Session, seconds: float) -> tuple[dict, list[dict], dict]:
    """End-to-end pass: experiment runs until `seconds` have elapsed (at
    least one), each after a set-up process; then set-up processes up to
    MIN_SETUP_SAMPLES. Returns the medians, the completed runs and the
    samples."""
    runs, setups = [], []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        setups.append(session.setup())
        runs.append(session.run(traced=False))
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(session.setup())
    done = [r for r in runs if r is not None]
    setups = [s for s in setups if s is not None]
    if not done or not setups:
        return {}, done, {}
    samples = {
        "wall_s": [r["wall_s"] for r in done],
        "cpu_s": [r["cpu_s"] for r in done],
        "setup_s": setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in done],
    }
    for name, values in samples.items():
        print(f"  {name}: median of {len(values)}; {tail_percentile(values)}")
    return {name: statistics.median(v) for name, v in samples.items()}, done, samples


def measure_traced(session: Session, seconds: float) -> tuple[dict, list[dict], dict]:
    """Traced pass: untraced and traced runs alternate until `seconds` have
    elapsed (at least one pair). Per-layer values are (low) medians over the
    traced runs; absent layers read 0."""
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(session.run(traced=False))
        traced.append(session.run(traced=True))
    plain = [r for r in plain if r is not None]
    traced = [r for r in traced if r is not None and "layers" in r]
    if not plain or not traced:
        return {}, plain + traced, {}
    # median_low keeps counts whole: it returns one of the measured values.
    metrics = {name: statistics.median_low(r["layers"].get(name, 0) for r in traced)
               for name in PER_LAYER}
    wall_plain = statistics.median(r["wall_s"] for r in plain)
    metrics["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced) - wall_plain) / wall_plain
    metrics["host.calib_s"] = statistics.median(r["calib_s"] for r in plain + traced)
    samples = {"untraced_wall_s": [r["wall_s"] for r in plain],
               "traced_wall_s": [r["wall_s"] for r in traced]}
    return metrics, plain + traced, samples


def environment(done: list[dict], seed: int, seeds: list[int]) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    env = dict(done[0]["env"])
    env.update({
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "runs": len(done),
        "workload_seed": seed,
        "experiment_seeds": seeds,
        "calib_s": [r["calib_s"] for r in done],
    })
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--config", help="config file (default: the shipped "
                        "configs/<workload>.cfg)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    shipped = os.path.join(ROOT, "configs", f"{args.workload}.cfg")
    config_path = os.path.abspath(args.config or shipped)
    package = os.path.join(ROOT, "src", "trajbound", "__init__.py")
    for needed in (package, config_path):
        if not os.path.isfile(needed):
            print(f"bench: {needed} not found; run from a trajbound checkout",
                  file=sys.stderr)
            return 2

    config_seeds = [int(s) for s in
                    check.read_config(config_path)["seeds"].split(",")]
    k = len(config_seeds)
    seeds = [args.seed * k + i for i in range(k)]
    if args.workload in FIXED_INPUT:
        seeds = config_seeds
    full_check = config_path == shipped and seeds == config_seeds
    work_dir = os.path.join(HERE, "_work", args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)

    session = Session(args.workload, config_path, seeds, full_check, work_dir)
    print(f"workload {args.workload}: experiment seeds {seeds}, "
          f"{'reference' if full_check else 'structural'} output check, "
          f"trace {args.trace}")
    if args.trace:
        metrics, done, samples = measure_traced(session, args.seconds)
        units = PER_LAYER
    else:
        metrics, done, samples = measure(session, args.seconds)
        units = END_TO_END
    for err in session.errors:
        print(f"  FAILED {err}")
    if not metrics:
        print("bench: no run completed; nothing measured", file=sys.stderr)
        return 1

    failed = len(session.errors)
    env = environment(done, args.seed, seeds)
    result_doc = {"workload": args.workload, "trace": args.trace, "env": env,
                  "errors": session.errors, "metrics": metrics, "samples": samples}
    with open(os.path.join(work_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result_doc, fh, indent=2)
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]!r} {unit}")
    print(f"  fail_frac = {failed / session.attempted!r} "
          f"({failed} of {session.attempted} processes)")
    print(f"  env {json.dumps(env)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
