"""Experiment commands and the CLI, on deliberately tiny configurations."""

import contextlib
import dataclasses
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trajbound import cli, experiments, models
from trajbound.bounds import top_hessian_eig
from trajbound.cli import main
from trajbound.config import (
    EXPERIMENTS,
    SINGLE_RUN,
    SWEEPS,
    default_config,
    emit_config,
    parse_config,
    parse_config_text,
)
from trajbound.errors import (
    ConfigError,
    DimensionMismatchError,
    DivergedError,
    IncompleteTrajectoryError,
    InvalidArgumentError,
    NumericDomainError,
    TrajboundError,
)
from trajbound.experiments import (
    COMMANDS,
    assemble_run,
    cmd_assumption,
    cmd_eos,
    cmd_sweep,
    cmd_toy_table,
    cmd_track,
)
from trajbound.optim import Schedule, train
from trajbound.trajectory import TrajectoryRecorder


def tiny(experiment, out, **overrides):
    base = dict(seeds=(0,), output_dir=str(out), n_train=16, n_test=16, dim=3)
    base.update(overrides)
    return dataclasses.replace(default_config(experiment), **base)


def read_rows(path):
    lines = open(path).read().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


# -- assemble_run -------------------------------------------------------------

def test_assemble_run_resolves_dataset_model_and_schedule(tmp_path):
    cfg = tiny("track", tmp_path, epochs=3, batch_size=4, flip_fraction=0.25)
    parts = assemble_run(cfg, run_seed=1)
    assert parts.S.n == 16 and parts.S_prime.n == 16
    assert parts.spec.kind == "mlp"
    assert parts.ocfg.batch_size == 4
    assert parts.ocfg.max_steps == 12  # 3 epochs x 4 steps
    assert parts.ocfg.snapshot_every == 4  # defaults to one epoch
    assert parts.ocfg.schedule.kind == "cosine"
    assert parts.ocfg.schedule.t_max == 12

    clean = assemble_run(dataclasses.replace(cfg, flip_fraction=0.0), 1)
    flipped = int(np.sum(parts.S.labels != clean.S.labels))
    assert flipped == 4  # exactly one quarter of 16


def test_assemble_run_gd_uses_the_full_batch(tmp_path):
    cfg = tiny("assumption", tmp_path, max_steps=5)
    parts = assemble_run(cfg, 0)
    assert parts.ocfg.batch_size == 16
    assert parts.ocfg.max_steps == 5


def test_assemble_run_overrides_for_sweep_cells(tmp_path):
    cfg = tiny("sweep_lr", tmp_path, epochs=2)
    a = assemble_run(cfg, 0, eta0_override=0.3)
    assert a.ocfg.schedule.eta0 == 0.3
    b = assemble_run(tiny("sweep_noise", tmp_path, epochs=2), 0,
                     flip_override=0.5)
    base = assemble_run(tiny("sweep_noise", tmp_path, epochs=2), 0,
                        flip_override=0.0)
    assert int(np.sum(b.S.labels != base.S.labels)) == 8


def test_assemble_run_inverse_time_estimates_smoothness(tmp_path):
    cfg = tiny("toy_table", tmp_path, epochs=2)
    parts = assemble_run(cfg, 0)
    hess = parts.S.features.T @ parts.S.features / parts.S.n
    assert parts.ocfg.schedule.kind == "inverse_time"
    # top_hessian_eig is this eigvalsh at any weight vector (the linear
    # Hessian does not depend on w); estimate_constants takes its beta_hat
    # from the same call, and the smooth bound checks the schedule's beta
    # against it
    w = parts.w0 + 1.0
    assert parts.ocfg.schedule.beta == top_hessian_eig(parts.spec, parts.S, w)
    assert parts.ocfg.schedule.beta == float(np.max(np.linalg.eigvalsh(hess)))


def test_assemble_run_is_deterministic(tmp_path):
    cfg = tiny("track", tmp_path, epochs=2)
    a = assemble_run(cfg, 5)
    b = assemble_run(cfg, 5)
    c = assemble_run(cfg, 6)
    assert np.array_equal(a.w0, b.w0)
    assert np.array_equal(a.S.features, b.S.features)
    assert not np.array_equal(a.w0, c.w0)


# -- commands ----------------------------------------------------------------

def test_cmd_toy_table_outputs(tmp_path):
    cfg = tiny("toy_table", tmp_path, seeds=(0, 1), epochs=4, batch_size=4)
    result = cmd_toy_table(cfg, plots=True)
    header, rows = read_rows(tmp_path / "toy_table.csv")
    assert header == ["seed", "gen_error", "ours_main", "ours_smooth",
                      "hardt_convex", "hardt_nonconvex", "zhang"]
    assert [r["seed"] for r in rows] == ["0", "1", "mean"]
    for col in header[1:]:
        vals = [float(r[col]) for r in rows]
        assert vals[2] == pytest.approx(np.mean(vals[:2]))
    assert result["mean"]["ours_main"] == float(rows[2]["ours_main"])

    bheader, brows = read_rows(tmp_path / "bounds.csv")
    assert len(brows) == 14  # 7 reports per seed
    methods = {r["method"] for r in brows}
    assert methods == {"ours_main", "ours_smooth", "ours_relaxed",
                       "hardt_convex", "hardt_nonconvex", "zhang", "bassily"}
    # each seed's bound columns are that seed's report values, by method
    value = {(r["seed"], r["method"]): r["value"] for r in brows}
    for row in rows[:2]:
        for col in header[2:]:
            assert row[col] == value[row["seed"], col]
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["experiment"] == "toy_table"
    assert meta["seeds"] == [0, 1]
    assert parse_config_text(meta["config"]) == cfg
    assert (tmp_path / "toy_table.svg").exists()


def test_cmd_track_series_are_internally_consistent(tmp_path):
    cfg = tiny("track", tmp_path, epochs=6, batch_size=4)
    cmd_track(cfg, plots=True)
    theader, trows = read_rows(tmp_path / "track.csv")
    assert theader == ["t", "epoch", "F_S", "F_Sprime", "F_plus_C", "dC_dF"]
    assert trows[0]["dC_dF"] == ""  # no interval before the first snapshot
    jheader, jrows = read_rows(tmp_path / "trajectory.csv")
    assert len(jrows) == len(trows)
    for tr, jr in zip(trows, jrows):
        assert tr["t"] == jr["t"]
        f_plus_c = float(jr["F_S"]) + float(jr["C_cum"])
        assert float(tr["F_plus_C"]) == pytest.approx(f_plus_c, abs=1e-15)
    for name in ("track_loss.svg", "track_ratio.svg"):
        assert (tmp_path / name).exists()


def test_cmd_assumption_control_ratio_is_exactly_one(tmp_path):
    cfg = tiny("assumption", tmp_path, max_steps=8, snapshot_every=2)
    result = cmd_assumption(cfg, plots=True)
    header, rows = read_rows(tmp_path / "assumption.csv")
    control = [r for r in rows if r["dataset"] == "control"]
    main_rows = [r for r in rows if r["dataset"] == "main"]
    assert len(control) == len(main_rows) == 5  # t = 0,2,4,6,8
    for r in control:
        assert float(r["gamma_tilde"]) == 1.0
    assert result["gamma_max"]["control"] == 1.0
    assert result["gamma_max"]["main"] == max(
        float(r["gamma_tilde"]) for r in main_rows
    )


def test_cmd_sweep_grid_rows_and_means(tmp_path):
    cfg = tiny("sweep_noise", tmp_path, seeds=(0, 1), epochs=3, batch_size=4,
               sweep_values=(0.0, 0.25), stop_train_loss=None)
    result = cmd_sweep(cfg, plots=True)
    header, rows = read_rows(tmp_path / "sweep.csv")
    assert header == ["sweep_param", "value", "seed", "gen_error", "C_final",
                      "stopped_at", "diverged"]
    assert len(rows) == 2 * (2 + 1)
    for v in ("0.0", "0.25"):
        block = [r for r in rows if r["value"] == v]
        mean = [r for r in block if r["seed"] == "mean"][0]
        per_seed = [r for r in block if r["seed"] != "mean"]
        assert mean["diverged"] == ""
        assert float(mean["gen_error"]) == pytest.approx(
            np.mean([float(r["gen_error"]) for r in per_seed])
        )
    assert set(result["per_value"]) == {0.0, 0.25}
    assert (tmp_path / "sweep_gen.svg").exists()
    assert (tmp_path / "sweep_c.svg").exists()


def test_cmd_sweep_records_divergence_without_aborting(tmp_path):
    cfg = tiny("sweep_lr", tmp_path, seeds=(0,), epochs=3, batch_size=4,
               sweep_values=(0.05, 1e6), stop_train_loss=None)
    cmd_sweep(cfg)
    _, rows = read_rows(tmp_path / "sweep.csv")
    dead = [r for r in rows if r["diverged"] == "1"]
    assert len(dead) == 1
    assert dead[0]["value"] == "1000000.0"
    assert dead[0]["gen_error"] == "" and dead[0]["C_final"] == ""
    dead_mean = [r for r in rows
                 if r["value"] == "1000000.0" and r["seed"] == "mean"][0]
    assert dead_mean["gen_error"] == ""
    # the sane cell still produced numbers
    ok_mean = [r for r in rows
               if r["value"] == "0.05" and r["seed"] == "mean"][0]
    assert ok_mean["gen_error"] != ""


def test_sweep_cell_numeric_domain_error_does_not_abort_the_grid(tmp_path,
                                                                  monkeypatch):
    built = []

    class FlakyRecorder(experiments.TrajectoryRecorder):
        # the second cell's recorder hits a numeric edge at step 8
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.flaky = len(built) == 1
            built.append(self)

        def __call__(self, t, epoch, eta_t, w, stats=None):
            if self.flaky and t == 8:
                raise NumericDomainError("negative covariance trace")
            return super().__call__(t, epoch, eta_t, w, stats)

    monkeypatch.setattr(experiments, "TrajectoryRecorder", FlakyRecorder)
    cfg = write_cfg(tmp_path, tiny_cfg_text(
        "sweep_noise", "optim.epochs = 3\noptim.batch_size = 4\n"
        "optim.stop_train_loss = none\nsweep.values = 0.0,0.25\n"))
    out = tmp_path / "out"
    assert main(["sweep_noise", "--config", cfg, "--out", str(out),
                 "--seeds", "0,1"]) == 0
    _, rows = read_rows(out / "sweep.csv")
    assert len(rows) == 2 * (2 + 1)
    failed = [r for r in rows if r["diverged"] == "1"]
    assert [(r["value"], r["seed"]) for r in failed] == [("0.0", "1")]
    # empty metrics, stopped at the last snapshot the recorder completed
    assert failed[0]["gen_error"] == "" and failed[0]["C_final"] == ""
    assert failed[0]["stopped_at"] == "4"
    means = {r["value"]: r for r in rows if r["seed"] == "mean"}
    seed0 = [r for r in rows if r["value"] == "0.0" and r["seed"] == "0"][0]
    assert means["0.0"]["gen_error"] == seed0["gen_error"]
    assert all(r["gen_error"] != "" for r in rows if r["value"] == "0.25")


def test_sweep_cell_whose_beta_solve_fails_is_a_diverged_row(tmp_path, monkeypatch):
    # an inverse-time sweep solves each cell's beta before training; a cell
    # whose solve raises NumericDomainError trains no step and reads as
    # diverged at step 0, and the other cells complete
    real, solves = experiments.top_hessian_eig, []

    def flaky(spec, S, w):
        solves.append(spec.kind)
        if len(solves) == 2:  # the second cell: value 0.0, seed 1
            raise NumericDomainError("non-finite Hessian-vector product")
        return real(spec, S, w)

    monkeypatch.setattr(experiments, "top_hessian_eig", flaky)
    cfg = write_cfg(tmp_path, tiny_cfg_text(
        "sweep_noise", "schedule.kind = inverse_time\noptim.epochs = 3\n"
        "optim.batch_size = 4\noptim.stop_train_loss = none\nsweep.values = 0.0,0.25\n"))
    out = tmp_path / "out"
    assert main(["sweep_noise", "--config", cfg, "--out", str(out),
                 "--seeds", "0,1"]) == 0
    assert solves == ["mlp"] * 4
    _, rows = read_rows(out / "sweep.csv")
    assert len(rows) == 2 * (2 + 1)
    failed = [r for r in rows if r["diverged"] == "1"]
    assert [(r["value"], r["seed"]) for r in failed] == [("0.0", "1")]
    assert failed[0]["gen_error"] == "" and failed[0]["C_final"] == ""
    assert failed[0]["stopped_at"] == "0"
    done = [r for r in rows if r["diverged"] == "0"]
    assert [(r["value"], r["seed"]) for r in done] == [("0.0", "0"), ("0.25", "0"),
                                                       ("0.25", "1")]
    assert all(r["gen_error"] != "" and r["C_final"] != "" for r in done)
    means = {r["value"]: r for r in rows if r["seed"] == "mean"}
    assert means["0.0"]["gen_error"] == done[0]["gen_error"]


def shrunk_sweep(experiment, out):
    """A shipped sweep preset at a size where the whole grid takes a second."""
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    cfg = parse_config(os.path.join(root, f"{experiment}.cfg"))
    return dataclasses.replace(cfg, seeds=(0, 1), output_dir=str(out), n_train=20,
                               n_test=40, dim=4, epochs=12,
                               batch_size=4, stop_train_loss=0.05,
                               sweep_values=cfg.sweep_values[:2])


@pytest.mark.parametrize("experiment", ["sweep_noise", "sweep_lr"])
def test_sweep_cells_match_a_recorder_with_the_holdout(experiment, tmp_path):
    # the sweep records no holdout statistics per snapshot; its training-set
    # statistics and gen_error must still be bitwise a full recorder's
    cfg = shrunk_sweep(experiment, tmp_path)
    cmd_sweep(cfg)
    _, rows = read_rows(tmp_path / "sweep.csv")
    cells = {(r["value"], r["seed"]): r for r in rows if r["seed"] != "mean"}
    lr = experiment == "sweep_lr"
    stopped = []
    for v in cfg.sweep_values:
        for s in cfg.seeds:
            parts = assemble_run(cfg, s, eta0_override=v if lr else None,
                                 flip_override=None if lr else v)
            full = TrajectoryRecorder(parts.spec, parts.S, parts.S_prime)
            bare = TrajectoryRecorder(parts.spec, parts.S, None)
            res = train(parts.spec, parts.w0, parts.S, parts.S_prime, parts.ocfg, full)
            train(parts.spec, parts.w0, parts.S, None, parts.ocfg, bare)
            for a, b in zip(full.snapshots, bare.snapshots, strict=True):
                for name in ("t", "epoch", "eta_t", "F_S", "grad_norm_S",
                             "trace_sigma", "delta_t", "C_cum"):
                    assert getattr(a, name) == getattr(b, name), name
            last = full.snapshots[-1]
            row = cells[(repr(float(v)), str(s))]
            assert row["diverged"] == "0"
            assert float(row["gen_error"]) == last.F_Sprime - last.F_S
            assert float(row["C_final"]) == last.C_cum
            assert int(row["stopped_at"]) == res.stopped_at
            stopped.append(res.stopped_at < parts.ocfg.max_steps)
    assert any(stopped)  # early stopping is covered too


def train_each_cell_alone(cells, recorders):
    """experiments._train_cells' contract, one solo train call per cell."""
    outcomes = []
    for parts, rec in zip(cells, recorders):
        try:
            outcomes.append(train(parts.spec, parts.w0, parts.S, None, parts.ocfg, rec))
        except (DivergedError, NumericDomainError) as exc:
            outcomes.append(exc)
    return outcomes


def test_stacked_sweep_rows_equal_training_each_cell_alone(tmp_path, monkeypatch):
    # a grid with a diverging rate: the one stack of all cells writes the
    # rows, in the order, that training every cell alone writes
    cfg = dataclasses.replace(shrunk_sweep("sweep_lr", tmp_path / "stack"),
                              sweep_values=(0.1, 1e6, 0.3))
    stacks = []
    real_train = experiments.train

    def train_spy(spec, *args, **kwargs):
        stacks.append(len(spec))
        return real_train(spec, *args, **kwargs)

    monkeypatch.setattr(experiments, "train", train_spy)
    cmd_sweep(cfg)
    assert stacks == [6]
    monkeypatch.setattr(experiments, "_train_cells", train_each_cell_alone)
    cmd_sweep(dataclasses.replace(cfg, output_dir=str(tmp_path / "solo")))
    stacked = (tmp_path / "stack" / "sweep.csv").read_bytes()
    assert stacked == (tmp_path / "solo" / "sweep.csv").read_bytes()
    _, rows = read_rows(tmp_path / "stack" / "sweep.csv")
    assert [(r["value"], r["diverged"]) for r in rows if r["seed"] != "mean"] == [
        ("0.1", "0"), ("0.1", "0"), ("1000000.0", "1"), ("1000000.0", "1"),
        ("0.3", "0"), ("0.3", "0")]


def test_toy_table_names_the_lowest_diverging_seed(tmp_path, monkeypatch):
    # seeds 1 and 2 get a rate that diverges; the stacked seeds raise the
    # labelled error of the first failed seed in config order, the one
    # training that seed alone raises, before any constants are formed
    real_assemble = experiments.assemble_run

    def assemble(cfg, run_seed, **kwargs):
        parts = real_assemble(cfg, run_seed, **kwargs)
        if run_seed > 0:
            blowup = Schedule("inverse_time", c=1e6, beta=parts.ocfg.schedule.beta)
            parts.ocfg = dataclasses.replace(parts.ocfg, schedule=blowup)
        return parts

    monkeypatch.setattr(experiments, "assemble_run", assemble)
    constants = []
    monkeypatch.setattr(experiments, "estimate_constants",
                        lambda *args, **kwargs: constants.append(args[0]))
    for seeds, first in (((0, 1, 2), 1), ((0, 2, 1), 2)):
        cfg = tiny("toy_table", tmp_path, seeds=seeds, epochs=2)
        parts = assemble(cfg, first)
        with pytest.raises(DivergedError) as solo:
            train(parts.spec, parts.w0, parts.S, parts.S_prime, parts.ocfg)
        with pytest.raises(DivergedError) as stacked:
            cmd_toy_table(cfg)
        assert str(stacked.value) == f"toy_table seed {first}: {solo.value}"
        assert (stacked.value.t, stacked.value.param_norm) == (solo.value.t,
                                                               solo.value.param_norm)
    assert constants == []


def test_every_experiment_has_a_command_in_the_same_order():
    assert tuple(COMMANDS) == EXPERIMENTS


TRACED_RUN = """
import dataclasses, json, sys
sys.path.insert(0, sys.argv[1])
import tracing
tracer = tracing.Tracer("test")
tracing.install(tracer)
from trajbound import optim
from trajbound.config import default_config
from trajbound.experiments import COMMANDS
small = dict(seeds=(0, 1), n_train=16, n_test=16, dim=3, epochs=2)
for name, extra in (("toy_table", {}), ("sweep_noise", {"sweep_values": (0.0, 0.25)}),
                    ("eos", {"seeds": (0,), "hidden": (4,), "epochs": 3})):
    cfg = dataclasses.replace(default_config(name), output_dir=sys.argv[2] + "/" + name,
                              **dict(small, **extra))
    COMMANDS[name](cfg)
tracer.dump(sys.argv[2] + "/spans.json")
doc = tracing.load_spans(sys.argv[2] + "/spans.json")
tracing.check_tree(doc)
stats = tracing.layer_stats(doc)
stats["wrapped"] = [fn.__name__ for fn in (optim.step, optim.grad_mean_xy)]
with open(sys.argv[2] + "/eos/eos.csv") as fh:
    stats["eos.snapshots"] = len(fh.read().splitlines()) - 1
print(json.dumps(stats))
"""


def test_benchmark_tracer_still_wraps_the_stacked_commands(tmp_path):
    # bench/tracing.py patches these names from outside the package: the
    # stacked train call is one optim.train span per command, assemble_run
    # still runs once per cell and estimate_constants once per seed, and
    # eos's power_iteration_top_eig is bound by its `apply` and `iters`
    # parameter names, one stacked solve per block of EOS_BLOCK snapshots
    root = os.path.join(os.path.dirname(__file__), "..")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run([sys.executable, "-c", TRACED_RUN, os.path.join(root, "bench"),
                           str(tmp_path)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    stats = json.loads(done.stdout.splitlines()[-1])
    assert stats["optim.train.calls"] == 3
    assert stats["experiments.assemble_run.calls"] == 2 + 2 * 2 + 1
    assert stats["bounds.estimate_constants.calls"] == 2
    assert stats["bounds.report.calls"] == 2 * 7 + 1
    assert stats["trajectory.recorder.calls"] > 4
    assert stats["wrapped"] == ["step", "grad_mean_xy"]
    assert stats["eos.snapshots"] > 0
    assert stats["numerics.power_iteration.solves"] == math.ceil(
        stats["eos.snapshots"] / experiments.EOS_BLOCK)
    assert stats["numerics.power_iteration.applies"] > 0


@pytest.mark.parametrize("workload", ["toy_table", "sweep_noise", "eos"])
def test_benchmark_setup_assembles_each_workloads_shipped_cells(workload):
    # bench/child.py's setup parses the shipped config and calls assemble_run
    # for every cell the command trains, with the sweep's flip_override
    root = os.path.join(os.path.dirname(__file__), "..")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run([sys.executable, os.path.join(root, "bench", "child.py"), "setup",
                           workload, os.path.join(root, "configs", f"{workload}.cfg"),
                           "0,1,2", repr(time.clock_gettime(time.CLOCK_MONOTONIC))],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["setup_s"] > 0


@pytest.mark.parametrize("experiment, values, completed", [
    ("sweep_noise", None, 4),
    ("sweep_lr", (0.1, 1e6), 2),  # both 1e6 cells diverge in training
])
def test_sweep_reads_the_holdout_once_per_completed_cell(experiment, values, completed,
                                                         tmp_path, monkeypatch):
    holdouts, training = [], [False]
    seen = {"while training": 0, "after training": 0}
    losses_on_holdout = []
    real_assemble, real_train = experiments.assemble_run, experiments.train
    real_forward, real_losses = models._forward, models.losses_batch

    def on_holdout(X):
        return any(np.shares_memory(X, h) for h in holdouts)

    def assemble(*args, **kwargs):
        parts = real_assemble(*args, **kwargs)
        holdouts.append(parts.S_prime.features)
        return parts

    def train_spy(*args, **kwargs):
        training[0] = True
        try:
            return real_train(*args, **kwargs)
        finally:
            training[0] = False

    def forward_spy(spec, w, X, oracle=False, layers=None):
        # every kernel's forward pass, so every kernel that receives S'
        if on_holdout(X):
            seen["while training" if training[0] else "after training"] += 1
        return real_forward(spec, w, X, oracle, layers=layers)

    def losses_spy(spec, w, X, y):
        losses_on_holdout.append(on_holdout(X))
        return real_losses(spec, w, X, y)

    monkeypatch.setattr(experiments, "assemble_run", assemble)
    monkeypatch.setattr(experiments, "train", train_spy)
    monkeypatch.setattr(models, "_forward", forward_spy)
    monkeypatch.setattr(experiments, "losses_batch", losses_spy)
    cfg = shrunk_sweep(experiment, tmp_path)
    if values is not None:
        cfg = dataclasses.replace(cfg, sweep_values=values)
    cmd_sweep(cfg)
    _, rows = read_rows(tmp_path / "sweep.csv")
    assert sum(r["diverged"] == "0" for r in rows) == completed
    assert seen == {"while training": 0, "after training": completed}
    assert losses_on_holdout == [True] * completed


def test_cmd_eos_uses_per_step_ratios_at_cadence_one(tmp_path):
    cfg = tiny("eos", tmp_path, epochs=5)
    cmd_eos(cfg, plots=True)
    header, rows = read_rows(tmp_path / "eos.csv")
    assert header == ["t", "epoch", "eta", "eta_eff", "rp", "trp",
                      "sharpness", "two_over_eta_eff"]
    assert rows[0]["rp"] == ""  # nothing to compare at t = 0
    assert all(r["rp"] != "" for r in rows[1:])
    for r in rows:
        assert float(r["eta_eff"]) == float(r["eta"])  # full-batch steps
        assert float(r["two_over_eta_eff"]) == pytest.approx(
            2.0 / float(r["eta_eff"])
        )
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["rp_mode"] == "step"
    assert meta["diverged_at"] is None


def chained_and_cold_solves(monkeypatch, cfg):
    """Run cmd_eos, solving each block of snapshots both as cmd_eos does and cold.

    Returns the (chained, cold) eigenvalues per snapshot, and the operator
    applies each side made: per row, from each solve's step counts, and
    stacked, counted through a wrapped `apply`.
    """
    real = experiments.power_iteration_top_eig
    values = {"chained": [], "cold": []}
    applies = {"chained": 0, "cold": 0}
    stacked = {"chained": 0, "cold": 0}

    def solve(apply, side, **kwargs):
        def wrapped(v):
            stacked[side] += 1
            return apply(v)
        lam, U, used = real(wrapped, **kwargs)
        values[side].extend(lam)
        applies[side] += int(used.sum())
        return lam, U, used

    def both(apply, dim, iters, tol, start=None, stack=None):
        solve(apply, "cold", dim=dim, iters=iters, tol=tol, stack=stack)
        return solve(apply, "chained", dim=dim, iters=iters, tol=tol, start=start,
                     stack=stack)

    monkeypatch.setattr(experiments, "power_iteration_top_eig", both)
    cmd_eos(cfg)
    return values, applies, stacked


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cmd_eos_chained_solves_match_cold_solves(seed, tmp_path, monkeypatch):
    # each row of a warm-started block against its own cold solve: a cold
    # stack's row k is the single cold solve at its weights
    cfg = tiny("eos", tmp_path, seeds=(seed,), epochs=40)
    values, _, _ = chained_and_cold_solves(monkeypatch, cfg)
    chained, cold = np.array(values["chained"]), np.array(values["cold"])
    assert len(chained) == 41
    assert np.all(np.abs(chained - cold) <= 1e-12 * np.abs(cold))
    _, rows = read_rows(tmp_path / "eos.csv")
    assert [float(r["sharpness"]) for r in rows] == list(chained)


def test_cmd_eos_chained_solves_save_applies_on_the_shipped_config(tmp_path,
                                                                   monkeypatch):
    root = os.path.join(os.path.dirname(__file__), "..")
    cfg = dataclasses.replace(parse_config(os.path.join(root, "configs", "eos.cfg")),
                              output_dir=str(tmp_path))
    _, applies, stacked = chained_and_cold_solves(monkeypatch, cfg)
    assert applies["chained"] <= 0.7 * applies["cold"]
    # the counts are deterministic. One solve a snapshot made 1 836 applies
    # warm-started from the previous Ritz vector alone and 1 641 from the
    # two-vector extrapolation. The 26 blocks of 8 make 243 stacked applies,
    # and their rows 1 811 applies in all: a row j > 0 of a block starts
    # further from its eigenvector than the next snapshot's own solve did
    assert (stacked["chained"], applies["chained"]) == (243, 1811)


def test_cmd_eos_records_its_solver_totals(tmp_path, monkeypatch):
    # meta.json counts the solves, their applies, the solves that made every
    # apply allowed, the blocks and their stacked applies; at 2 applies a
    # solve, the tiny run caps them all
    real = experiments.power_iteration_top_eig
    used, stacked = [], [0]

    def counted(apply, dim, iters, tol, start=None, stack=None):
        def wrapped(v):
            stacked[0] += 1
            return apply(v)
        lam, U, steps = real(wrapped, dim, iters=iters, tol=tol, start=start, stack=stack)
        used.extend(steps.tolist())
        return lam, U, steps

    monkeypatch.setattr(experiments, "power_iteration_top_eig", counted)
    cfg = tiny("eos", tmp_path, epochs=5)
    full = experiments.EOS_ITERS
    for block, blocks in ((experiments.EOS_BLOCK, 1), (4, 2)):
        monkeypatch.setattr(experiments, "EOS_BLOCK", block)
        for iters, capped in ((full, 0), (2, 6)):
            monkeypatch.setattr(experiments, "EOS_ITERS", iters)
            used.clear()
            stacked[0] = 0
            cmd_eos(cfg)
            solver = json.loads((tmp_path / "meta.json").read_text())["solver"]
            assert solver == {"solves": 6, "applies": sum(used),
                              "at_cap": sum(n == iters for n in used),
                              "blocks": blocks, "block_applies": stacked[0]}
            assert solver["at_cap"] == capped
            assert max(used) <= solver["block_applies"] <= sum(used)


@pytest.mark.parametrize("experiment", ["toy_table", "sweep_noise", "eos"])
def test_shipped_config_matches_the_benchmark_reference(experiment, tmp_path):
    # eos reads rp/trp off the recorder's mean gradients at every step, the
    # outputs most sensitive to how the snapshot statistics are computed;
    # toy_table's 60 000 batch-1 steps are the ones most sensitive to the step;
    # sweep_noise is the shipped SGD run of the MLP (b = 10, early stopping)
    root = os.path.join(os.path.dirname(__file__), "..")
    loader = importlib.util.spec_from_file_location(
        "bench_check", os.path.join(root, "bench", "check.py"))
    check = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(check)
    config_path = os.path.join(root, "configs", f"{experiment}.cfg")
    cfg = dataclasses.replace(parse_config(config_path), output_dir=str(tmp_path))
    COMMANDS[experiment](cfg)
    check.check_outputs(experiment, config_path, cfg.seeds, str(tmp_path), full=True)


def test_commands_rerun_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg1 = tiny("track", out1, epochs=4, batch_size=4)
    cfg2 = tiny("track", out2, epochs=4, batch_size=4)
    cmd_track(cfg1)
    cmd_track(cfg2)
    for name in ("track.csv", "trajectory.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the shipped sweep_noise shape (12 stacked cells, the 1000-row holdout,
    # P = 705), cut to a few epochs, writes the same bytes whether OpenBLAS
    # runs one thread or two
    root = os.path.join(os.path.dirname(__file__), "..")
    with open(os.path.join(root, "configs", "sweep_noise.cfg"), encoding="utf-8") as fh:
        shipped = fh.read()
    assert "\noptim.epochs = 400\n" in shipped
    cfg = write_cfg(tmp_path, shipped.replace("\noptim.epochs = 400\n",
                                              "\noptim.epochs = 3\n"))
    outs = []
    for threads in ("1", "2"):
        outs.append(tmp_path / f"threads_{threads}")
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                   OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-m", "trajbound.cli", "sweep_noise",
                               "--config", cfg, "--out", str(outs[-1]), "--plots"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
    one, two = ({p.name: p.read_bytes() for p in sorted(out.iterdir())
                 if p.suffix in (".csv", ".svg")} for out in outs)
    assert sorted(one) == ["sweep.csv", "sweep_c.svg", "sweep_gen.svg"]
    assert one == two
    # a header, then each value's three seeds and their mean
    assert one["sweep.csv"].count(b"\n") == 1 + 4 * (3 + 1)


@pytest.mark.parametrize("plots", [False, True])
@pytest.mark.parametrize("experiment", sorted(COMMANDS))
def test_a_command_returns_exactly_its_files_in_writing_order(experiment, plots, tmp_path):
    # the returned paths are the files of the output directory, each once:
    # the CSV tables, then meta.json, then, only with plots, the SVGs
    cfg = tiny(experiment, tmp_path / "out", epochs=None, max_steps=4)
    if cfg.batch_size is not None:
        cfg = dataclasses.replace(cfg, batch_size=4)
    paths = COMMANDS[experiment](cfg, plots=plots)["paths"]
    assert {os.path.dirname(p) for p in paths} == {cfg.output_dir}
    names = [os.path.basename(p) for p in paths]
    assert sorted(names) == sorted(os.listdir(cfg.output_dir))
    kinds = [os.path.splitext(name)[1] for name in names]
    assert kinds == sorted(kinds, key=[".csv", ".json", ".svg"].index)
    assert ".csv" in kinds and names.count("meta.json") == kinds.count(".json") == 1
    assert (".svg" in kinds) == plots


# Each command's plotted CSV, which of its rows the figures draw, and each
# figure's SVG, x column and y columns in polyline order.
FIGURE_ROWS = {
    "toy_table": ("toy_table.csv", lambda r: r["seed"] != "mean", [
        ("toy_table.svg", "seed", ("gen_error", "ours_main", "hardt_nonconvex"))]),
    "sweep_noise": ("sweep.csv", lambda r: r["seed"] == "mean", [
        ("sweep_gen.svg", "value", ("gen_error",)),
        ("sweep_c.svg", "value", ("C_final",))]),
    "assumption": ("assumption.csv", lambda r: r["dataset"] == "main", [
        ("assumption_gamma.svg", "epoch", ("gamma_tilde",)),
        ("assumption_loss.svg", "epoch", ("F_S",))]),
    "track": ("track.csv", lambda r: True, [
        ("track_loss.svg", "epoch", ("F_S", "F_Sprime", "F_plus_C")),
        ("track_ratio.svg", "epoch", ("dC_dF",))]),
    "eos": ("eos.csv", lambda r: True, [
        ("eos_rp.svg", "epoch", ("rp", "trp")),
        ("eos_sharpness.svg", "epoch", ("sharpness", "two_over_eta_eff"))]),
}
FIGURE_ROWS["sweep_lr"] = FIGURE_ROWS["sweep_noise"]


@pytest.mark.parametrize("experiment", sorted(COMMANDS))
def test_each_figure_draws_the_rows_its_command_picks(experiment, tmp_path):
    # toy_table draws one point per seed and not the mean row, a sweep one
    # point per value (its mean rows), assumption only its main rows, and
    # track and eos every row; each polyline counts its rows' non-empty cells
    cfg = tiny(experiment, tmp_path, epochs=None, max_steps=4)
    if cfg.batch_size is not None:
        cfg = dataclasses.replace(cfg, batch_size=4)
    if experiment not in SINGLE_RUN:
        cfg = dataclasses.replace(cfg, seeds=(0, 1, 2))
    COMMANDS[experiment](cfg, plots=True)
    table, drawn, figures = FIGURE_ROWS[experiment]
    _, rows = read_rows(tmp_path / table)
    picked = [r for r in rows if drawn(r)]
    for svg, x, ys in figures:
        text = (tmp_path / svg).read_text()
        counts = [len(chunk.split('"')[0].split()) for chunk in text.split('points="')[1:]]
        assert counts == [sum(r[x] != "" and r[y] != "" for r in picked) for y in ys]
        if experiment == "toy_table":
            assert counts == [3, 3, 3]
        elif experiment in SWEEPS:
            assert counts == [len(cfg.sweep_values)]
        elif experiment == "assumption":
            assert 0 < len(picked) == len(rows) // 2 and counts[0] > 0


# -- CLI ----------------------------------------------------------------------

def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def tiny_cfg_text(experiment, extra=""):
    return (
        f"experiment = {experiment}\n"
        "seeds = 0\n"
        "dataset.n_train = 16\n"
        "dataset.n_test = 16\n"
        "dataset.dim = 3\n"
        + extra
    )


def test_cli_success_writes_outputs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, tiny_cfg_text("eos", "optim.epochs = 3\n"))
    out = tmp_path / "out"
    code = main(["eos", "--config", cfg, "--out", str(out)])
    assert code == 0
    assert (out / "eos.csv").exists()
    printed = capsys.readouterr().out
    assert "eos.csv" in printed and "meta.json" in printed


def test_cli_seeds_override(tmp_path):
    cfg = write_cfg(tmp_path, tiny_cfg_text(
        "toy_table", "optim.epochs = 2\noptim.batch_size = 4\n"
    ))
    out = tmp_path / "out"
    code = main(["toy_table", "--config", cfg, "--out", str(out),
                 "--seeds", "5,6"])
    assert code == 0
    _, rows = read_rows(out / "toy_table.csv")
    assert [r["seed"] for r in rows] == ["5", "6", "mean"]


def test_cli_plots_flag(tmp_path):
    cfg = write_cfg(tmp_path, tiny_cfg_text("eos", "optim.epochs = 3\n"))
    out = tmp_path / "out"
    assert main(["eos", "--config", cfg, "--out", str(out), "--plots"]) == 0
    assert (out / "eos_rp.svg").exists()
    assert (out / "eos_sharpness.svg").exists()


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "experiment = eos\nbogus.key = 1\n")
    assert main(["eos", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_retired_key_in_an_old_config_exits_2(tmp_path, capsys):
    # configs written before est.n_sp was retired still carry its "none" line
    cfg = write_cfg(tmp_path, tiny_cfg_text("eos", "optim.epochs = 2\nest.n_sp = none\n"))
    assert main(["eos", "--config", cfg]) == 2
    assert f"{cfg}:7: unknown key 'est.n_sp'" in capsys.readouterr().err


def test_cli_experiment_mismatch_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, tiny_cfg_text("eos", "optim.epochs = 2\n"))
    assert main(["track", "--config", cfg]) == 2
    assert "requested" in capsys.readouterr().err


def test_cli_bad_seeds_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, tiny_cfg_text("eos", "optim.epochs = 2\n"))
    assert main(["eos", "--config", cfg, "--seeds", "one,two"]) == 2
    assert "--seeds" in capsys.readouterr().err
    assert main(["eos", "--config", cfg, "--seeds", ","]) == 2
    assert "--seeds" in capsys.readouterr().err
    # an empty value is parsed, not ignored in favour of the config's seeds
    assert main(["eos", "--config", cfg, "--seeds", ""]) == 2
    assert "--seeds" in capsys.readouterr().err


@pytest.mark.parametrize("route", ["config", "flag"])
def test_cli_negative_seeds_are_a_config_error(tmp_path, capsys, route):
    text = tiny_cfg_text("track", "optim.epochs = 1\n")
    argv = ["--out", str(tmp_path / "out")]
    if route == "config":
        text = text.replace("seeds = 0", "seeds = -1")
    else:
        argv.append("--seeds=-5")
    assert main(["track", "--config", write_cfg(tmp_path, text), *argv]) == 2
    assert "seeds" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("route", ["config", "flag"])
def test_cli_repeated_seeds_are_a_config_error(tmp_path, capsys, route):
    # a repeated seed would train twice and weigh twice in toy_table's mean row
    text = tiny_cfg_text("toy_table", "optim.epochs = 1\n")
    argv = ["--out", str(tmp_path / "out")]
    if route == "config":
        text = text.replace("seeds = 0", "seeds = 0,0,1")
    else:
        argv += ["--seeds", "0,0"]
    assert main(["toy_table", "--config", write_cfg(tmp_path, text), *argv]) == 2
    assert "config error: seeds: needs one or more values >= 0, each once" in (
        capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_cli_toy_table_with_an_mlp_exits_2_before_training(tmp_path, capsys):
    cfg = write_cfg(tmp_path, tiny_cfg_text(
        "toy_table", "model.kind = mlp\nmodel.hidden = 8\noptim.epochs = 2\n"
                     "optim.batch_size = 4\n"))
    assert main(["toy_table", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "model.kind" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment, key, extra", [
    ("track", "model.hidden", "optim.epochs = 1\nmodel.hidden = 0\n"),
    ("sweep_noise", "optim.batch_size", "optim.epochs = 1\noptim.batch_size = 17\n"),
    ("sweep_noise", "sweep.values", "optim.epochs = 1\nsweep.values = 0.1,0.2,0.10\n"),
], ids=["zero_width", "batch_above_n_train", "repeated_grid_value"])
def test_cli_out_of_range_value_exits_2_at_validation(tmp_path, capsys, experiment, key,
                                                       extra):
    cfg = write_cfg(tmp_path, tiny_cfg_text(experiment, extra))  # n_train = 16
    assert main([experiment, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"{key}: needs" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment, key, extra", [
    ("track", "output_dir", "optim.epochs = 1\noutput_dir = a\0b\n"),
], ids=["output_dir"])
def test_cli_nul_in_a_path_is_a_config_error(tmp_path, capsys, monkeypatch,
                                             experiment, key, extra):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, f"experiment = {experiment}\nseeds = 0\n" + extra)
    assert main([experiment, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err and "NUL" in err


def test_cli_empty_output_dir_is_a_config_error(tmp_path, capsys):
    # the empty path would fail only when the command makes it, as an i/o error
    cfg = write_cfg(tmp_path, tiny_cfg_text("track", "optim.epochs = 1\noutput_dir =\n"))
    assert main(["track", "--config", cfg]) == 2
    assert "config error: output_dir: needs a non-empty path" in capsys.readouterr().err
    # an empty --out overrides the config's output_dir, not falls back to it
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, tiny_cfg_text("track", f"optim.epochs = 1\noutput_dir = {out}\n"))
    assert main(["track", "--config", cfg, "--out", ""]) == 2
    assert "config error: output_dir: needs a non-empty path" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("optim.mode", "gd"), ("sweep.param", "noise"),
                                        ("est.k_samples", "1024"), ("dataset.kind", "toy"),
                                        ("dataset.path", "none"),
                                        ("dataset.label_column", "none"),
                                        ("dataset.holdout_fraction", "0.5"),
                                        ("model.loss", "squared")])
def test_cli_a_retired_key_exits_2_naming_the_key_and_its_line(tmp_path, capsys, key,
                                                                value):
    # optim.batch_size decides gd or sgd, the experiment what a sweep varies,
    # and no command takes a Monte-Carlo budget from the config; every run
    # trains on the toy task with squared loss, so the CSV dataset's keys
    # and the loss choice are gone too, even at the values old configs wrote
    cfg = write_cfg(tmp_path, tiny_cfg_text("sweep_noise", f"{key} = {value}\n"))
    assert main(["sweep_noise", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"run.cfg:6: unknown key '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_a_fixed_schedule_beta_exits_2_before_training(tmp_path, capsys):
    # toy_table's smooth bound holds only at the beta estimated from the data,
    # which assemble_run always sets, so a config that fixes beta is rejected
    # before any seed trains or any output is made
    cfg = write_cfg(tmp_path, tiny_cfg_text(
        "toy_table", "optim.epochs = 2\noptim.batch_size = 4\nschedule.beta = 3.5\n"))
    out = tmp_path / "out"
    assert main(["toy_table", "--config", cfg, "--out", str(out)]) == 2
    assert "run.cfg:8: unknown key 'schedule.beta'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_eos_cadence_above_one_step_exits_2_before_any_output(tmp_path, capsys):
    # eos takes only full-batch gd, so toy sgd with b < n_train, whose epoch
    # is more than one step, fails on its batch size; at the full batch a
    # snapshot every 2 steps fails on the cadence
    for key, extra in (("optim.batch_size", "optim.batch_size = 4\n"
                                            "optim.snapshot_every = epoch\n"),
                       ("optim.snapshot_every", "optim.snapshot_every = 2\n")):
        cfg = write_cfg(tmp_path, tiny_cfg_text("eos", "optim.epochs = 1\n" + extra))
        assert main(["eos", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert f"config error: {key}: needs" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment", ["track", "assumption", "eos"])
@pytest.mark.parametrize("route", ["config", "flag"])
def test_cli_a_single_run_experiment_rejects_a_second_seed(tmp_path, capsys, experiment,
                                                          route):
    # these experiments train one run: a second seed would go untrained
    text = tiny_cfg_text(experiment, "optim.epochs = 1\n")
    argv = ["--out", str(tmp_path / "out")]
    if route == "config":
        text = text.replace("seeds = 0", "seeds = 0,1")
    else:
        argv += ["--seeds", "0,1"]
    assert main([experiment, "--config", write_cfg(tmp_path, text), *argv]) == 2
    assert (f"config error: seeds: needs one seed for {experiment}, got (0, 1)"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_cli_eos_with_a_batch_size_exits_2_before_any_output(tmp_path, capsys):
    # 2/eta is the stability threshold of full-batch gd, not of sgd steps
    extra = "optim.epochs = 1\noptim.batch_size = 4\noptim.snapshot_every = 1\n"
    cfg = write_cfg(tmp_path, tiny_cfg_text("eos", extra))
    assert main(["eos", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "config error: optim.batch_size: needs none for eos, got 4" in (
        capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment", ["toy_table", "track", "assumption",
                                        "sweep_noise"])
def test_cli_batch_larger_than_the_training_set_leaves_no_output_dir(
        experiment, tmp_path, capsys):
    # every dataset's size is dataset.n_train, so validation rejects the
    # batch, before any command makes --out
    cfg = write_cfg(tmp_path, tiny_cfg_text(
        experiment, "optim.epochs = 1\noptim.batch_size = 500\n"))  # n_train = 16
    assert main([experiment, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert ("config error: optim.batch_size: needs <= dataset.n_train = 16, got 500"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_cli_missing_config_is_an_io_error(tmp_path, capsys):
    assert main(["eos", "--config", str(tmp_path / "absent.cfg")]) == 4
    assert "cannot read config" in capsys.readouterr().err


def test_cli_divergence_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, tiny_cfg_text(
        "eos", "optim.epochs = 3\nschedule.eta0 = 1000000.0\n"
    ))
    out = tmp_path / "out"
    assert main(["eos", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "diverged" in err
    # the partial series was still written before the failure surfaced
    assert (out / "eos.csv").exists()
    assert f"partial series written to {out / 'eos.csv'}" in err


def test_cli_eos_runs_through_zero_rate_steps(tmp_path):
    # cosine decays to 0 over the run, so only the last snapshot has rate 0;
    # 2/eta_eff is left empty wherever the rate is 0 (mid-run zero rates,
    # which have no one-step rp/trp, are covered at the recorder level)
    cfg = write_cfg(tmp_path, tiny_cfg_text("eos", (
        "optim.max_steps = 5\nschedule.kind = cosine\nschedule.eta0 = 0.1\n")))
    out = tmp_path / "out"
    assert main(["eos", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_rows(out / "eos.csv")
    assert [r["t"] for r in rows] == ["0", "1", "2", "3", "4", "5"]
    zero = [r["t"] for r in rows if float(r["eta"]) == 0.0]
    assert zero == ["5"]
    for r in rows:
        assert (r["two_over_eta_eff"] == "") == (r["t"] in zero)
        # rp/trp at t describe the step from t - 1
        no_ratio = r["t"] == "0" or str(int(r["t"]) - 1) in zero
        assert (r["rp"] == "" and r["trp"] == "") == no_ratio


PACKAGE_ERROR_EXITS = [
    (TrajboundError("unclassified"), 2),
    (InvalidArgumentError("bad argument"), 2),
    (DimensionMismatchError("bad shape"), 2),
    (ConfigError("bad key"), 2),
    (IncompleteTrajectoryError("snapshots too sparse"), 2),
    (NumericDomainError("negative trace"), 3),
    (DivergedError(7, 1e13), 3),
]


def test_cli_exit_code_cases_cover_every_package_error():
    def family(cls):
        return {cls}.union(*(family(sub) for sub in cls.__subclasses__()))
    assert {type(exc) for exc, _ in PACKAGE_ERROR_EXITS} == family(TrajboundError)


@pytest.mark.parametrize("exc, code", PACKAGE_ERROR_EXITS,
                         ids=[type(exc).__name__ for exc, _ in PACKAGE_ERROR_EXITS])
def test_cli_maps_each_package_error_to_its_exit_code(tmp_path, monkeypatch,
                                                      capsys, exc, code):
    def command(cfg, plots=False):
        raise exc
    monkeypatch.setitem(cli.COMMANDS, "eos", command)
    cfg = write_cfg(tmp_path, tiny_cfg_text("eos", "optim.epochs = 2\n"))
    assert main(["eos", "--config", cfg]) == code
    assert str(exc) in capsys.readouterr().err


# Each preset at a size where a whole run takes milliseconds: the property
# below is about which exit code comes back, not about the results.
SHRUNK = dict(n_train=8, n_test=8, dim=3, epochs=None, max_steps=3)


def run_cli_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=100, deadline=None)
@given(raw=st.binary(max_size=200), experiment=st.sampled_from(sorted(COMMANDS)))
def test_cli_exit_code_is_documented_for_any_config_bytes(raw, experiment):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "wb") as fh:
            fh.write(raw)
        code = run_cli_quietly([experiment, "--config", path,
                                "--out", os.path.join(tmp, "out")])
    assert code in (0, 2, 3, 4)


@settings(max_examples=40, deadline=None)
@given(experiment=st.sampled_from(sorted(COMMANDS)),
       seeds=st.lists(st.integers(-2 ** 64, 2 ** 64), min_size=1, max_size=2),
       via_flag=st.booleans())
@example(experiment="track", seeds=[0, 1], via_flag=False)
@example(experiment="track", seeds=[0, 1], via_flag=True)
def test_cli_exit_code_is_documented_for_shrunk_presets(experiment, seeds, via_flag):
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    cfg = parse_config(os.path.join(root, f"{experiment}.cfg"))
    cfg = dataclasses.replace(cfg, **SHRUNK, seeds=(0,) if via_flag else tuple(seeds))
    if cfg.batch_size is not None:
        cfg = dataclasses.replace(cfg, batch_size=min(cfg.batch_size, 4))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(emit_config(cfg))
        argv = [experiment, "--config", path, "--out", os.path.join(tmp, "out")]
        if via_flag:
            argv.append("--seeds=" + ",".join(str(s) for s in seeds))
        code = run_cli_quietly(argv)
    assert code in (0, 2, 3, 4)
    assert (code == 2) == (any(s < 0 for s in seeds) or len(set(seeds)) < len(seeds)
                           or (experiment in SINGLE_RUN and len(seeds) > 1))
