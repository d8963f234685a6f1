"""Experiment commands: one function per CLI subcommand.

Each command is a pure function of (config, seeds): it assembles the
dataset, model, and optimizer from the validated config, runs training
with a trajectory recorder, and writes CSV outputs (plus optional SVG
plots and a meta.json echoing the resolved configuration). Re-running a
command with the same inputs produces byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .bounds import (
    bound_stability_baseline,
    bound_trajectory_main,
    bound_trajectory_relaxed,
    bound_trajectory_smooth,
    estimate_constants,
    top_hessian_eig,
    write_bounds_csv,
)
from .config import SWEEPS, ExperimentConfig, emit_config
from .data import (
    Dataset,
    ToyConfig,
    generate_toy,
    inject_label_noise,
    noise_stream,
    write_csv,
)
from .errors import DivergedError, NumericDomainError
from .models import (
    ModelSpec,
    hessian_operator,
    init_params,
    linear_spec,
    losses_batch,
    mlp_spec,
)
from .numerics import STREAM_INIT, RngStream, power_iteration_top_eig
from .optim import OptimConfig, Schedule, resolve_batch_size, train
from .plots import PlotSpec, emit_svg_plots
from .trajectory import (
    SubsetEstimatorConfig,
    TrajectoryRecorder,
    replay_trajectory,
    write_trajectory_csv,
)


@dataclass
class RunParts:
    """Everything one training run needs, resolved from config + seed."""

    spec: ModelSpec
    S: Dataset
    S_prime: Dataset
    w0: np.ndarray
    ocfg: OptimConfig  # batch_size resolved: n for gd


def assemble_run(cfg: ExperimentConfig, run_seed: int,
                 eta0_override: float | None = None,
                 flip_override: float | None = None) -> RunParts:
    S, S_prime, _teacher = generate_toy(
        ToyConfig(cfg.n_train, cfg.n_test, cfg.dim, seed=run_seed)
    )
    flip = cfg.flip_fraction if flip_override is None else flip_override
    if flip > 0.0:
        S = inject_label_noise(S, flip, noise_stream(run_seed))

    spec = linear_spec(S.dim) if cfg.model_kind == "linear" else mlp_spec(S.dim, cfg.hidden)
    w0 = init_params(spec, RngStream(run_seed, STREAM_INIT))

    b = resolve_batch_size(cfg.batch_size, S.n)
    steps_per_epoch = max(1, math.ceil(S.n / b))
    max_steps = (cfg.max_steps if cfg.max_steps is not None
                 else cfg.epochs * steps_per_epoch)
    snapshot_every = cfg.snapshot_every or steps_per_epoch

    eta0 = cfg.eta0 if eta0_override is None else eta0_override
    if cfg.schedule_kind == "constant":
        schedule = Schedule("constant", eta0=eta0)
    elif cfg.schedule_kind == "inverse_time":
        schedule = Schedule("inverse_time", c=cfg.c, beta=top_hessian_eig(spec, S, w0))
    else:
        schedule = Schedule("cosine", eta0=eta0, t_max=max(1, max_steps))

    ocfg = OptimConfig(
        batch_size=b,
        schedule=schedule,
        max_steps=max_steps,
        stop_train_loss=cfg.stop_train_loss,
        snapshot_every=snapshot_every,
        seed=run_seed,
    )
    return RunParts(spec, S, S_prime, w0, ocfg)


def _write_outputs(cfg: ExperimentConfig, plots: bool, tables: dict, meta: dict,
                   figures) -> list[str]:
    """Write a command's files under cfg.output_dir; their paths in writing order.

    First each CSV of tables, which maps a file name to its (columns, rows)
    or to a function that writes the file at the path it is given; then
    meta.json, the experiment, seeds and resolved config with the
    command's meta entries; then, with plots, each (columns, rows, [PlotSpec])
    of figures, drawn from the rows the command passes.
    """
    out = cfg.output_dir
    paths = []
    for name, table in tables.items():
        paths.append(os.path.join(out, name))
        if callable(table):
            table(paths[-1])
        else:
            write_csv(paths[-1], *table)
    doc = {"experiment": cfg.experiment, "seeds": list(cfg.seeds),
           "config": emit_config(cfg), **meta}
    paths.append(os.path.join(out, "meta.json"))
    with open(paths[-1], "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    if plots:
        for columns, rows, specs in figures:
            paths += emit_svg_plots(out, columns, rows, specs)
    return paths


def _train_cells(cells, recorders) -> list:
    """Train the cells (RunParts), each with its recorder, as one stack.

    One outcome per cell, in order: its TrainResult, or the DivergedError or
    NumericDomainError that ended it. The cells of one command share their
    config, so they stack: one model spec, n, batch size, max_steps and
    snapshot_every.
    """
    if not cells:
        return []
    return train([p.spec for p in cells], [p.w0 for p in cells], [p.S for p in cells],
                 None, [p.ocfg for p in cells], list(recorders))


def _raise_failed(seeds, outcomes, label: str) -> None:
    """Raise the first failed outcome in config order, if any.

    A DivergedError is restated with the command and the seed that diverged;
    any other error is raised as it is.
    """
    for seed, res in zip(seeds, outcomes):
        if isinstance(res, DivergedError):
            raise DivergedError(res.t, res.param_norm, f"{label} seed {seed}: {res}") from res
        if isinstance(res, Exception):
            raise res


def _train_seeds(cfg: ExperimentConfig, rp_mode: str | None = None) -> tuple:
    """Train cfg.seeds as one stack, each with a holdout recorder of rp_mode.

    Returns their RunParts, recorders and _train_cells outcomes, in config
    order; the output directory is made once all are assembled.
    """
    cells = [assemble_run(cfg, s) for s in cfg.seeds]
    os.makedirs(cfg.output_dir, exist_ok=True)
    recs = [TrajectoryRecorder(p.spec, p.S, p.S_prime, rp_mode=rp_mode) for p in cells]
    return cells, recs, _train_cells(cells, recs)


# toy_table.csv's columns; after seed and gen_error, the bound methods it shows
TOY_TABLE_COLUMNS = ("seed", "gen_error", "ours_main", "ours_smooth",
                     "hardt_convex", "hardt_nonconvex", "zhang")


def cmd_toy_table(cfg: ExperimentConfig, plots: bool = False) -> dict:
    """Train the comparison task per seed and tabulate bound values.

    The seeds train as one stack, each with its own beta and schedule;
    the constants and bounds are then estimated per seed. If a seed's run
    failed, the first such seed in config order raises its error, before
    any constants are formed: a DivergedError labelled with the seed.
    Writes toy_table.csv (per-seed rows plus a seed-mean row) and bounds.csv
    with the full per-seed bound reports.
    """
    table_rows, reports, report_seeds = [], [], []
    cells, recs, outcomes = _train_seeds(cfg)
    _raise_failed(cfg.seeds, outcomes, "toy_table")
    for s, parts, rec, res in zip(cfg.seeds, cells, recs, outcomes):
        consts = estimate_constants(parts.spec, rec.weights, rec.snapshots,
                                    res.etas, res.batch_size, parts.S,
                                    cfg=SubsetEstimatorConfig(seed=s))
        schedule = parts.ocfg.schedule
        r_main = bound_trajectory_main(consts, rec.snapshots)
        r_smooth = bound_trajectory_smooth(consts, rec.snapshots, schedule)
        r_relaxed = bound_trajectory_relaxed(consts, rec.snapshots)
        r_hc = bound_stability_baseline("hardt_convex", consts, res.etas)
        r_hnc = bound_stability_baseline("hardt_nonconvex", consts, res.etas,
                                         schedule)
        r_zh = bound_stability_baseline("zhang", consts, res.etas, schedule)
        r_ba = bound_stability_baseline("bassily", consts, res.etas)
        seed_reports = (r_main, r_smooth, r_relaxed, r_hc, r_hnc, r_zh, r_ba)
        value = {rep.method: rep.value for rep in seed_reports}
        last = rec.snapshots[-1]
        table_rows.append([s, last.F_Sprime - last.F_S]
                          + [value[m] for m in TOY_TABLE_COLUMNS[2:]])
        reports.extend(seed_reports)
        report_seeds.extend([s] * len(seed_reports))

    values = np.array([row[1:] for row in table_rows], dtype=np.float64)
    mean_row = ["mean"] + [float(v) for v in np.mean(values, axis=0)]
    paths = _write_outputs(cfg, plots, {
        "toy_table.csv": (TOY_TABLE_COLUMNS, table_rows + [mean_row]),
        "bounds.csv": lambda path: write_bounds_csv(path, reports, seeds=report_seeds),
    }, {}, [(TOY_TABLE_COLUMNS, table_rows, [
        PlotSpec(x="seed", ys=("gen_error", "ours_main", "hardt_nonconvex"),
                 out_name="toy_table.svg", title="bound comparison by seed"),
    ])])
    mean = dict(zip(TOY_TABLE_COLUMNS[1:], mean_row[1:]))
    return {"paths": paths, "mean": mean}


def cmd_track(cfg: ExperimentConfig, plots: bool = False) -> dict:
    """Record the run of the one seed and derive the complexity-tracking series.

    Writes trajectory.csv plus track.csv with F_S + C_cum and the
    per-interval ratio dC/dF_S (empty when F_S did not change).
    """
    _, (rec,), outcomes = _train_seeds(cfg)
    _raise_failed(cfg.seeds, outcomes, "track")
    rows = []
    snaps = rec.snapshots
    for i, snap in enumerate(snaps):
        if i == 0:
            ratio = None
        else:
            df = snap.F_S - snaps[i - 1].F_S
            dc = snap.C_cum - snaps[i - 1].C_cum
            ratio = None if df == 0.0 else dc / df
        rows.append([snap.t, snap.epoch, snap.F_S, snap.F_Sprime,
                     snap.F_S + snap.C_cum, ratio])
    columns = ("t", "epoch", "F_S", "F_Sprime", "F_plus_C", "dC_dF")
    paths = _write_outputs(cfg, plots, {
        "trajectory.csv": lambda path: write_trajectory_csv(path, snaps),
        "track.csv": (columns, rows),
    }, {}, [(columns, rows, [
        PlotSpec(x="epoch", ys=("F_S", "F_Sprime", "F_plus_C"),
                 out_name="track_loss.svg", title="loss and shifted complexity"),
        PlotSpec(x="epoch", ys=("dC_dF",), out_name="track_ratio.svg",
                 title="complexity-to-loss increment ratio"),
    ])])
    return {"paths": paths}


def cmd_assumption(cfg: ExperimentConfig, plots: bool = False) -> dict:
    """Probe the holdout/train gradient-norm ratio along the run of the one seed.

    The main series uses the held-out set; a control series replays the
    same weights with the training set standing in for the holdout, where
    the ratio is identically 1.
    """
    (parts,), (rec,), outcomes = _train_seeds(cfg)
    _raise_failed(cfg.seeds, outcomes, "assumption")
    control = replay_trajectory(
        parts.spec, parts.S, parts.S, rec.weights,
        [sn.t for sn in rec.snapshots],
        [sn.epoch for sn in rec.snapshots],
        [sn.eta_t for sn in rec.snapshots],
    )

    rows = {}
    gamma_max = {}
    for label, snaps in (("main", rec.snapshots), ("control", control.snapshots)):
        defined = [sn.gamma_tilde for sn in snaps if sn.gamma_tilde is not None]
        gamma_max[label] = max(defined) if defined else None
        rows[label] = [[label, sn.t, sn.epoch, sn.F_S, sn.grad_norm_S,
                        sn.grad_norm_Sprime, sn.gamma_tilde] for sn in snaps]
    columns = ("dataset", "t", "epoch", "F_S", "grad_norm_S", "grad_norm_Sprime",
               "gamma_tilde")
    paths = _write_outputs(cfg, plots, {
        "assumption.csv": (columns, rows["main"] + rows["control"]),
    }, {"gamma_max_main": gamma_max["main"],
        "gamma_max_control": gamma_max["control"]}, [(columns, rows["main"], [
        PlotSpec(x="epoch", ys=("gamma_tilde",), out_name="assumption_gamma.svg",
                 title="holdout/train gradient-norm ratio"),
        PlotSpec(x="epoch", ys=("F_S",), out_name="assumption_loss.svg",
                 title="training loss"),
    ])])
    return {"paths": paths, "gamma_max": gamma_max}


SWEEP_COLUMNS = ("sweep_param", "value", "seed", "gen_error", "C_final",
                 "stopped_at", "diverged")


def cmd_sweep(cfg: ExperimentConfig, plots: bool = False) -> dict:
    """Grid x seeds sweep recording generalization gap and final complexity.

    Every cell of the grid trains in one stack; rows are written in grid
    order. Each cell trains with a recorder that has no holdout, since
    C_final needs only training-set statistics; gen_error = F_S' - F_S takes
    F_S' from one forward pass over S' at the final weights (bitwise the
    F_S' a holdout recorder would give there) and F_S from the last snapshot.

    A cell that fails numerically becomes a row with diverged=1 and empty
    metrics; it is excluded from the seed-mean rows and does not abort the
    sweep. A divergence reports its step in stopped_at; a NumericDomainError
    (a non-finite pass, including the final S' pass, or a negative trace)
    reports the last recorded snapshot step.
    """
    param = SWEEPS[cfg.experiment][0]
    grid = [(v, s) for v in cfg.sweep_values for s in cfg.seeds]
    cells, recs, at = [], [], []
    for i, (v, s) in enumerate(grid):
        try:
            parts = assemble_run(
                cfg, s,
                eta0_override=v if param == "lr" else None,
                flip_override=v if param == "noise" else None,
            )
        except NumericDomainError:  # a non-finite curvature solve for beta
            continue
        cells.append(parts)
        recs.append(TrajectoryRecorder(parts.spec, parts.S, None))
        at.append(i)
    os.makedirs(cfg.output_dir, exist_ok=True)
    trained = dict(zip(at, zip(cells, recs, _train_cells(cells, recs))))

    def cell_row(i: int) -> list:
        v, s = grid[i]
        if i not in trained:
            return [param, v, s, None, None, 0, 1]
        parts, rec, res = trained[i]
        if isinstance(res, DivergedError):
            return [param, v, s, None, None, res.t, 1]
        # a NumericDomainError, in training or in the final S' pass
        domain_row = [param, v, s, None, None,
                      rec.snapshots[-1].t if rec.snapshots else 0, 1]
        if isinstance(res, NumericDomainError):
            return domain_row
        try:
            f_sp = float(np.mean(losses_batch(parts.spec, res.w_final,
                                              parts.S_prime.features,
                                              parts.S_prime.labels)))
        except NumericDomainError:
            return domain_row
        last = rec.snapshots[-1]
        return [param, v, s, f_sp - last.F_S, last.C_cum, res.stopped_at, 0]

    rows, mean_rows = [], []
    per_value = {}
    n_seeds = len(cfg.seeds)
    for j, v in enumerate(cfg.sweep_values):
        cell_rows = [cell_row(i) for i in range(j * n_seeds, (j + 1) * n_seeds)]
        metrics = [row[3:6] for row in cell_rows if row[6] == 0]
        if metrics:
            arr = np.array(metrics, dtype=np.float64)
            m = np.mean(arr, axis=0)
            per_value[v] = (float(m[0]), float(m[1]), float(m[2]))
            mean_rows.append([param, v, "mean", float(m[0]), float(m[1]),
                              float(m[2]), None])
        else:
            per_value[v] = None
            mean_rows.append([param, v, "mean", None, None, None, None])
        rows += cell_rows + [mean_rows[-1]]

    paths = _write_outputs(cfg, plots, {"sweep.csv": (SWEEP_COLUMNS, rows)}, {
        "grid": list(cfg.sweep_values), "sweep_param": param,
    }, [(SWEEP_COLUMNS, mean_rows, [
        PlotSpec(x="value", ys=("gen_error",), out_name="sweep_gen.svg",
                 title=f"generalization gap vs {param}"),
        PlotSpec(x="value", ys=("C_final",), out_name="sweep_c.svg",
                 title=f"final complexity vs {param}"),
    ])])
    return {"paths": paths, "per_value": per_value}


# The Lanczos applies each eos sharpness solve may make.
EOS_ITERS = 120
# Snapshots per stacked eos solve (at least 2: a block starts from the last
# two Ritz vectors of the one before). The shipped eos config (P = 705,
# n = 100; numpy 2.4.6, OpenBLAS on one thread of a 2-vCPU x86 host) took
# 134.5, 126.7, 125.4, 124.9, 124.9 and 127.3 ms at blocks of 4, 6, 8, 10,
# 12 and 16, and its peak RSS grew 0.5 MB from 8 to 10 and again to 12:
# larger blocks make fewer stacked applies but more row applies (rows
# further from their warm start) and larger stacked temporaries.
EOS_BLOCK = 8


def cmd_eos(cfg: ExperimentConfig, plots: bool = False) -> dict:
    """Relative-progress and sharpness series for the full-batch gd run of the one seed.

    A snapshot every step (validate_config holds eos to 1 or epoch) records
    the exact one-step RP/TRP, the top Hessian eigenvalue, and the 2/eta_eff
    stability reference (eta_eff is the step's eta), left empty at a
    snapshot whose rate is 0 (with cosine, only the last, its endpoint). On
    divergence the partial series is still written, then the error propagates.

    The sharpness is solved in blocks of EOS_BLOCK snapshots, each block one
    stacked Lanczos solve on a stacked Hessian operator, each of its rows
    making at most EOS_ITERS applies. The first block starts cold. Row j of
    every later block starts from the extrapolation (2 + j) u_a - (1 + j) s
    u_(a-1) of the last two Ritz vectors solved, s = sign(u_a . u_(a-1))
    aligning the sign each solve leaves free: j + 1 steps ahead along
    their difference. meta.json's solver field counts the solves (one a
    snapshot), their applies and, as at_cap, the solves that made all
    EOS_ITERS applies (those may have stopped short of their tolerance),
    then the blocks and their stacked applies, block_applies.
    """
    (parts,), (rec,), (res,) = _train_seeds(cfg, rp_mode="step")
    if isinstance(res, NumericDomainError):
        raise res
    died = res if isinstance(res, DivergedError) else None

    sharpness, steps = [], []  # steps: each block's applies per row
    U = None  # the last block's Ritz vectors
    for lo in range(0, len(rec.weights), EOS_BLOCK):
        W = np.stack(rec.weights[lo:lo + EOS_BLOCK])
        start = None
        if U is not None:
            u, prev = U[-1], U[-2]
            j = np.arange(len(W))[:, None]
            start = (2.0 + j) * u - ((1.0 + j) * np.sign(u @ prev)) * prev
        sharp, U, used = power_iteration_top_eig(
            hessian_operator(parts.spec, W, parts.S), dim=W.shape[1], iters=EOS_ITERS,
            tol=1e-7, start=start, stack=len(W))
        sharpness.extend(sharp.tolist())
        steps.append(used)
    # a stacked solve applies its operator until its last row stops
    solver = {"solves": len(sharpness), "applies": int(sum(u.sum() for u in steps)),
              "at_cap": int(sum((u == EOS_ITERS).sum() for u in steps)),
              "blocks": len(steps), "block_applies": int(sum(u.max() for u in steps))}

    rows = []
    for snap, sharp in zip(rec.snapshots, sharpness):
        eta = snap.eta_t  # also eta_eff: snapshots are one step apart
        rows.append([snap.t, snap.epoch, eta, eta, snap.rp, snap.trp,
                     sharp, 2.0 / eta if eta > 0 else None])
    columns = ("t", "epoch", "eta", "eta_eff", "rp", "trp", "sharpness",
               "two_over_eta_eff")
    paths = _write_outputs(cfg, plots, {"eos.csv": (columns, rows)}, {
        "rp_mode": "step", "solver": solver,
        "diverged_at": died.t if died is not None else None}, [(columns, rows, [
        PlotSpec(x="epoch", ys=("rp", "trp"), out_name="eos_rp.svg",
                 title="relative progress"),
        PlotSpec(x="epoch", ys=("sharpness", "two_over_eta_eff"),
                 out_name="eos_sharpness.svg", title="sharpness vs 2/eta"),
    ])])
    if died is not None:
        raise DivergedError(died.t, died.param_norm,
                            f"eos seed {cfg.seeds[0]}: diverged at step {died.t}; "
                            f"partial series written to {paths[0]}")
    return {"paths": paths}


COMMANDS = {
    "toy_table": cmd_toy_table,
    "track": cmd_track,
    "assumption": cmd_assumption,
    "sweep_noise": cmd_sweep,
    "sweep_lr": cmd_sweep,
    "eos": cmd_eos,
}
