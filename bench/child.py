"""One fresh benchmark process: a set-up measurement or one experiment run.

Started by run.py with OPENBLAS_NUM_THREADS pinned and PYTHONPATH pointing at
the checkout's src/. Prints one JSON object on stdout.

  child.py setup <experiment> <config> <seeds> <spawned_at>
      Imports trajbound, parses the config and assembles the run parts for
      every cell the command trains. Reports the time since `spawned_at`, the
      parent's CLOCK_MONOTONIC reading taken just before it started this
      process (the clock is shared by all processes on Linux).

  child.py run <experiment> <config> <seeds> <out_dir> [<spans_path> <run_id>]
      Times the host calibration kernel, then the experiment command from the
      call into COMMANDS[experiment] until it returns with its CSVs and
      meta.json written. With a spans path, every layer is traced and the
      spans are written there after the command returns.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _load(config_path: str, seeds: str, out_dir: str | None = None):
    """Import the checkout's trajbound and return the overridden config."""
    import dataclasses

    import trajbound
    from trajbound import config

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src", "trajbound")
    if os.path.dirname(os.path.abspath(trajbound.__file__)) != src:
        raise SystemExit(f"imported trajbound from {trajbound.__file__}, "
                         f"not from {src}")
    cfg = config.parse_config(config_path)
    cfg = dataclasses.replace(cfg, seeds=tuple(int(s) for s in seeds.split(",")))
    if out_dir is not None:
        cfg = dataclasses.replace(cfg, output_dir=out_dir)
    return cfg


def setup(experiment: str, config_path: str, seeds: str, spawned_at: float) -> dict:
    cfg = _load(config_path, seeds)
    from trajbound.experiments import assemble_run

    # The cells each command trains: every noise value x seed for the sweep,
    # every seed for toy_table, and only the first seed for eos.
    if experiment == "sweep_noise":
        for v in cfg.sweep_values:
            for s in cfg.seeds:
                assemble_run(cfg, s, flip_override=v)
    elif experiment == "toy_table":
        for s in cfg.seeds:
            assemble_run(cfg, s)
    else:
        assemble_run(cfg, cfg.seeds[0])
    return {"setup_s": _monotonic() - spawned_at}


def calibrate() -> float:
    """Seconds for a fixed numpy kernel shaped like the package's hot loops.

    Many small interpreter-bound operations (like batch-1 SGD steps) plus
    BLAS products at the per-sample gradient shapes (1000 rows, P = 705).
    """
    import numpy as np

    rng = np.random.default_rng(20230425)
    x = rng.standard_normal(20)
    W = rng.standard_normal((20, 32))
    G = rng.standard_normal((1000, 705))
    S = rng.choice([-1.0, 1.0], size=(64, 1000))
    start = time.perf_counter()
    for _ in range(10000):
        h = np.tanh(x @ W)
        W = W - 1e-9 * np.outer(x, h)
    for _ in range(24):
        m = S @ G
        np.sqrt(np.einsum("kp,kp->k", m, m))
    return time.perf_counter() - start


def run(experiment: str, config_path: str, seeds: str, out_dir: str,
        spans_path: str | None = None, run_id: str | None = None) -> dict:
    import numpy as np

    tracer = None
    if spans_path is not None:
        import tracing

        tracer = tracing.Tracer(run_id)
        tracing.install(tracer)
    cfg = _load(config_path, seeds, out_dir)
    from trajbound.experiments import COMMANDS

    command = COMMANDS[experiment]
    if tracer is not None:
        command = tracer.wrap(command, "experiments.cmd")
    calib_s = calibrate()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    command(cfg)
    wall_s, cpu_s = time.perf_counter() - wall0, time.process_time() - cpu0
    if tracer is not None:
        tracer.dump(spans_path)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calib_s": calib_s,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }


def main(argv: list[str]) -> None:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        result = setup(rest[0], rest[1], rest[2], float(rest[3]))
    elif mode == "run":
        result = run(*rest)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
