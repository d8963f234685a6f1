"""Experiment commands and the CLI, on deliberately tiny configurations."""

import contextlib
import dataclasses
import importlib.util
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajbound import cli, experiments, models
from trajbound.cli import main
from trajbound.config import default_config, emit_config, parse_config, parse_config_text
from trajbound.errors import (
    ConfigError,
    DataParseError,
    DataSchemaError,
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
from trajbound.optim import train
from trajbound.trajectory import TrajectoryRecorder


def tiny(experiment, out, **overrides):
    base = dict(seeds=(0,), output_dir=str(out), n_train=16, n_test=16,
                dim=3, k_samples=32)
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
    assert parts.batch_size == 4
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
    assert parts.ocfg.mode == "gd"
    assert parts.ocfg.batch_size is None
    assert parts.batch_size == 16
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
    assert parts.ocfg.schedule.beta == pytest.approx(
        float(np.max(np.linalg.eigvalsh(hess)))
    )


def test_assemble_run_is_deterministic(tmp_path):
    cfg = tiny("track", tmp_path, epochs=2)
    a = assemble_run(cfg, 5)
    b = assemble_run(cfg, 5)
    c = assemble_run(cfg, 6)
    assert np.array_equal(a.w0, b.w0)
    assert np.array_equal(a.S.features, b.S.features)
    assert not np.array_equal(a.w0, c.w0)


def test_assemble_run_csv_dataset(tmp_path):
    data = tmp_path / "d.csv"
    rows = ["f1,f2,y"] + [f"{i},{i % 3},{i % 2}" for i in range(10)]
    data.write_text("\n".join(rows) + "\n")
    cfg = dataclasses.replace(
        tiny("track", tmp_path, epochs=2, batch_size=2),
        dataset_kind="csv", csv_path=str(data), label_column="y",
        holdout_fraction=0.4,
    )
    parts = assemble_run(cfg, 0)
    assert parts.S.n == 6 and parts.S_prime.n == 4
    assert parts.spec.input_dim == 2


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

        def __call__(self, t, epoch, eta_t, w):
            if self.flaky and t == 8:
                raise NumericDomainError("negative covariance trace")
            return super().__call__(t, epoch, eta_t, w)

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


def shrunk_sweep(experiment, out):
    """A shipped sweep preset at a size where the whole grid takes a second."""
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    cfg = parse_config(os.path.join(root, f"{experiment}.cfg"))
    return dataclasses.replace(cfg, seeds=(0, 1), output_dir=str(out), n_train=20,
                               n_test=40, dim=4, k_samples=16, epochs=12,
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
    lr = cfg.sweep_param == "lr"
    stopped = []
    for v in cfg.sweep_values:
        for s in cfg.seeds:
            parts = assemble_run(cfg, s, eta0_override=v if lr else None,
                                 flip_override=None if lr else v)
            full = TrajectoryRecorder(parts.spec, parts.S, parts.S_prime, parts.est)
            bare = TrajectoryRecorder(parts.spec, parts.S, None, parts.est)
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
        "est.k_samples = 32\n"
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


@pytest.mark.parametrize("experiment, key, extra", [
    ("track", "output_dir", "optim.epochs = 1\noutput_dir = a\0b\n"),
    ("toy_table", "dataset.path",
     "optim.epochs = 1\ndataset.kind = csv\ndataset.path = a\0b\n"
     "dataset.label_column = y\n"),
], ids=["output_dir", "dataset.path"])
def test_cli_nul_in_a_path_is_a_config_error(tmp_path, capsys, monkeypatch,
                                             experiment, key, extra):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, f"experiment = {experiment}\nseeds = 0\n" + extra)
    assert main([experiment, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err and "NUL" in err


def test_cli_missing_config_is_an_io_error(tmp_path, capsys):
    assert main(["eos", "--config", str(tmp_path / "absent.cfg")]) == 4
    assert "cannot read config" in capsys.readouterr().err


def test_cli_divergence_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, tiny_cfg_text(
        "eos", "optim.epochs = 3\nschedule.eta0 = 1000000.0\n"
    ))
    out = tmp_path / "out"
    assert main(["eos", "--config", cfg, "--out", str(out)]) == 3
    assert "diverged" in capsys.readouterr().err
    # the partial series was still written before the failure surfaced
    assert (out / "eos.csv").exists()


PACKAGE_ERROR_EXITS = [
    (TrajboundError("unclassified"), 2),
    (InvalidArgumentError("bad argument"), 2),
    (DimensionMismatchError("bad shape"), 2),
    (DataSchemaError("no rows"), 2),
    (DataParseError(3, "x", "abc"), 2),
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
SHRUNK = dict(n_train=8, n_test=8, dim=3, k_samples=16, epochs=None, max_steps=3)


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
def test_cli_exit_code_is_documented_for_shrunk_presets(experiment, seeds, via_flag):
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    cfg = parse_config(os.path.join(root, f"{experiment}.cfg"))
    cfg = dataclasses.replace(cfg, **SHRUNK, seeds=(0,) if via_flag else tuple(seeds))
    if cfg.mode == "sgd":
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
    assert (code == 2) == any(s < 0 for s in seeds)
