"""The acceptance gate: twelve checks, one printed verdict line each.

Every test prints `criterion NN <name>: PASS|FAIL (<measurements>)` before
asserting, so a plain `pytest -s tests/test_acceptance.py` shows the full
scorecard. Training runs shared between criteria live in session fixtures;
the experiment configs are the shipped files under configs/.
"""

import dataclasses
import itertools
import math
import os
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from trajbound.config import parse_config
from trajbound.data import Dataset, ToyConfig, generate_toy
from trajbound.experiments import (
    cmd_assumption,
    cmd_sweep,
    cmd_toy_table,
    cmd_track,
)
from trajbound.models import (
    hessian_vector_product,
    init_params,
    linear_spec,
    losses_batch,
    mlp_spec,
    per_sample_grads,
)
from trajbound.numerics import RngStream, central_diff_gradient
from trajbound.optim import OptimConfig, Schedule, train
from trajbound.trajectory import (
    SubsetEstimatorConfig,
    TrajectoryRecorder,
    gen_decomposition,
    grad_trace_sigma,
    noise_cov_scale,
    signed_mean_norm_stats,
)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def verdict(num, name, ok, detail):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def shipped(experiment, out_dir):
    cfg = parse_config(os.path.join(CONFIG_DIR, f"{experiment}.cfg"))
    return dataclasses.replace(cfg, output_dir=str(out_dir))


def read_rows(path):
    lines = open(path).read().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


@pytest.fixture(scope="session")
def toy_table_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy_table")
    cfg = shipped("toy_table", out)
    t0 = time.perf_counter()
    result = cmd_toy_table(cfg)
    return cfg, out, result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def assumption_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("assumption")
    cfg = shipped("assumption", out)
    cmd_assumption(cfg)
    return cfg, out


@pytest.fixture(scope="session")
def track_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("track")
    cfg = shipped("track", out)
    cmd_track(cfg)
    return cfg, out


@pytest.fixture(scope="session")
def sweep_runs(tmp_path_factory):
    elapsed = {}
    outs = {}
    for name in ("sweep_noise", "sweep_lr"):
        out = tmp_path_factory.mktemp(name)
        cfg = shipped(name, out)
        t0 = time.perf_counter()
        cmd_sweep(cfg)
        elapsed[name] = time.perf_counter() - t0
        outs[name] = out
    return outs, elapsed


def test_criterion_01_bound_comparison(toy_table_run):
    _, out, result, elapsed = toy_table_run
    mean = result["mean"]
    gen, ours = mean["gen_error"], mean["ours_main"]
    hardt, zhang = mean["hardt_nonconvex"], mean["zhang"]
    ok = (gen <= ours <= hardt) and zhang / ours > 100 and elapsed < 30
    verdict(1, "bound comparison", ok,
            f"gen {gen:.3f} <= ours {ours:.3f} <= hardt_nc {hardt:.1f}, "
            f"zhang/ours {zhang / ours:.0f}, {elapsed:.1f}s")


def test_criterion_02_batch_noise_oracle():
    n = 6
    gen = np.random.default_rng(42)
    data = Dataset(gen.standard_normal((n, 4)), gen.standard_normal(n))
    spec = linear_spec(4)
    w = gen.standard_normal(4)
    G = per_sample_grads(spec, w, data)
    g_full = np.mean(G, axis=0)
    trace, _, _ = grad_trace_sigma(spec, w, data)

    t0 = time.perf_counter()
    worst_mean, worst_trace = 0.0, 0.0
    for b in (1, 2, 3):
        eps = np.array([np.mean(G[list(batch)], axis=0) - g_full
                        for batch in itertools.combinations(range(n), b)])
        worst_mean = max(worst_mean, float(np.max(np.abs(np.mean(eps, axis=0)))))
        cov_trace = float(np.mean(np.einsum("kp,kp->k", eps, eps)))
        worst_trace = max(worst_trace,
                          abs(cov_trace - noise_cov_scale(n, b) * trace))
    elapsed = time.perf_counter() - t0
    ok = worst_mean < 1e-12 and worst_trace < 1e-10 and elapsed < 1.0
    verdict(2, "batch-noise oracle", ok,
            f"mean dev {worst_mean:.1e}, trace dev {worst_trace:.1e}, "
            f"{elapsed:.2f}s")


def test_criterion_03_trace_identity():
    gen = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        n = int(gen.integers(2, 21))
        d = int(gen.integers(1, 11))
        data = Dataset(gen.standard_normal((n, d)), gen.standard_normal(n))
        w = gen.standard_normal(d)
        trace, _, _ = grad_trace_sigma(linear_spec(d), w, data)
        G = per_sample_grads(linear_spec(d), w, data)
        dense = float(np.trace(np.atleast_2d(np.cov(G.T, bias=True))))
        worst = max(worst, abs(trace - dense))
    ok = worst < 1e-10
    verdict(3, "trace identity", ok, f"50 cases, worst dev {worst:.1e}")


def test_criterion_04_gradient_check():
    gen = np.random.default_rng(11)
    worst_rel = 0.0
    for kind in ("linear", "mlp"):
        for _ in range(50):
            n = int(gen.integers(2, 7))
            d = int(gen.integers(1, 5))
            data = Dataset(gen.standard_normal((n, d)), gen.standard_normal(n))
            spec = linear_spec(d) if kind == "linear" else mlp_spec(
                d, (int(gen.integers(2, 5)),)
            )
            w = gen.standard_normal(spec.n_params) * 0.5
            G = per_sample_grads(spec, w, data)
            for i in range(n):
                x, y = data.features[i:i + 1], data.labels[i:i + 1]
                fd = central_diff_gradient(
                    lambda v: float(losses_batch(spec, v, x, y)[0]), w, h=1e-5
                )
                rel = float(np.linalg.norm(G[i] - fd)
                            / max(1.0, np.linalg.norm(fd)))
                worst_rel = max(worst_rel, rel)

    worst_sym = 0.0
    for _ in range(20):
        d = int(gen.integers(2, 6))
        data = Dataset(gen.standard_normal((5, d)), gen.standard_normal(5))
        spec = linear_spec(d)
        w = gen.standard_normal(d)
        u, v = gen.standard_normal(d), gen.standard_normal(d)
        lhs = float(u @ hessian_vector_product(spec, w, data, v))
        rhs = float(v @ hessian_vector_product(spec, w, data, u))
        worst_sym = max(worst_sym, abs(lhs - rhs))
    ok = worst_rel < 1e-5 and worst_sym < 1e-6
    verdict(4, "gradient check", ok,
            f"100 cases, worst grad rel {worst_rel:.1e}, "
            f"worst symmetry dev {worst_sym:.1e}")


def per_step_toy_run(seed, eta, steps, batch=None, n_test=200):
    S, Sp, _ = generate_toy(ToyConfig(100, n_test, 20, seed=seed))
    spec = mlp_spec(20, (8,))
    w0 = init_params(spec, RngStream(seed, 5))
    rec = TrajectoryRecorder(spec, S, Sp)
    cfg = OptimConfig(batch_size=batch,
                      schedule=Schedule("constant", eta0=eta),
                      max_steps=steps, snapshot_every=1, seed=seed)
    train(spec, w0, S, Sp, cfg, rec)
    return rec


def test_criterion_05_telescoping():
    worst = 0.0
    for batch in (None, 10):  # gd, sgd
        rec = per_step_toy_run(seed=0, eta=0.05, steps=40, batch=batch)
        per_step, gen_lin, rem = gen_decomposition(
            rec.snapshots, rec.weights, rec.grads_S, rec.grads_Sprime
        )
        snaps = rec.snapshots
        total = ((snaps[-1].F_Sprime - snaps[-1].F_S)
                 - (snaps[0].F_Sprime - snaps[0].F_S))
        worst = max(worst, abs(float(np.sum(per_step)) - total))
        worst = max(worst, abs(gen_lin + rem - total))
    ok = worst < 1e-10
    verdict(5, "telescoping decomposition", ok,
            f"gd+sgd runs, worst reconstruction dev {worst:.1e}")


def test_criterion_06_remainder_halving():
    ratios = []
    for seed in range(5):
        rec_a = per_step_toy_run(seed, eta=0.1, steps=200)
        rec_b = per_step_toy_run(seed, eta=0.05, steps=400)
        _, _, rem_a = gen_decomposition(rec_a.snapshots, rec_a.weights,
                                        rec_a.grads_S, rec_a.grads_Sprime)
        _, _, rem_b = gen_decomposition(rec_b.snapshots, rec_b.weights,
                                        rec_b.grads_S, rec_b.grads_Sprime)
        ratios.append(abs(rem_b) / abs(rem_a))
    mean_ratio = float(np.mean(ratios))
    ok = 0.3 <= mean_ratio <= 0.7
    verdict(6, "remainder halving", ok,
            f"mean |remainder| ratio at half step size {mean_ratio:.3f} "
            f"over 5 seeds")


def quadratic_rp_run(lam, eta, steps):
    # a single sample (x, 0) with x = sqrt(lam) makes the squared loss
    # exactly lam/2 * w^2
    data = Dataset(np.array([[math.sqrt(lam)]]), np.array([0.0]))
    spec = linear_spec(1)
    rec = TrajectoryRecorder(spec, data, data, rp_mode="step")
    cfg = OptimConfig(batch_size=None,
                      schedule=Schedule("constant", eta0=eta),
                      max_steps=steps, snapshot_every=1)
    train(spec, np.array([1.0]), data, data, cfg, rec)
    return rec.snapshots


def test_criterion_07_quadratic_relative_progress():
    lam = 3.0
    snaps = quadratic_rp_run(lam, eta=0.2, steps=20)
    worst = max(abs(s.rp - (-1.0 + 0.2 * lam / 2.0)) for s in snaps[1:])

    hot = quadratic_rp_run(lam, eta=1.0, steps=10)  # eta > 2/lam
    losses_up = all(b.F_S > a.F_S for a, b in zip(hot[:-1], hot[1:]))
    rp_positive = all(s.rp > 0 for s in hot[1:])
    hot_dev = max(abs(s.rp - (-1.0 + 1.0 * lam / 2.0)) for s in hot[1:])
    ok = worst < 1e-10 and losses_up and rp_positive and hot_dev < 1e-10
    verdict(7, "quadratic relative progress", ok,
            f"stable dev {worst:.1e}, unstable dev {hot_dev:.1e}, "
            f"loss increases past 2/curvature: {losses_up}")


def test_criterion_08_sign_mixing_estimator():
    gen = np.random.default_rng(17)
    worst_z = 0.0
    jensen_ok = True
    # below n=4 the sign-flipped norm takes so few distinct values that a
    # handful of draws can have zero spread, leaving no standard error to
    # compare against
    for n in (4, 5, 6):
        for trial in range(4):
            d = int(gen.integers(2, 6))
            data = Dataset(gen.standard_normal((n, d)), gen.standard_normal(n))
            spec = linear_spec(d)
            w = gen.standard_normal(d)
            G = per_sample_grads(spec, w, data)
            exact, se0 = signed_mean_norm_stats(
                G, SubsetEstimatorConfig(k_samples=64)
            )
            assert se0 == 0.0
            mc, se = signed_mean_norm_stats(
                G, SubsetEstimatorConfig(k_samples=2 ** n - 1, seed=trial)
            )
            worst_z = max(worst_z, abs(mc - exact) / se)
            trace, gnorm, _ = grad_trace_sigma(spec, w, data)
            cap = math.sqrt((trace + gnorm ** 2) / n)
            jensen_ok = jensen_ok and mc <= cap + 3 * se
            jensen_ok = jensen_ok and exact <= cap + 1e-12
    ok = worst_z <= 3.0 and jensen_ok
    verdict(8, "sign-mixing estimator", ok,
            f"worst |mc - exhaustive| = {worst_z:.2f} standard errors, "
            f"second-moment cap respected: {jensen_ok}")


def test_criterion_09_ratio_assumption(assumption_run):
    _, out = assumption_run
    rows = read_rows(out / "assumption.csv")
    main = [r for r in rows if r["dataset"] == "main"]
    control = [r for r in rows if r["dataset"] == "control"]
    t_final = max(int(r["t"]) for r in main)
    first_quarter = [float(r["gamma_tilde"]) for r in main
                     if int(r["t"]) <= t_final / 4 and r["gamma_tilde"]]
    med = float(np.median(first_quarter))
    control_exact = all(float(r["gamma_tilde"]) == 1.0 for r in control)
    ok = 0.5 <= med <= 2.0 and control_exact
    verdict(9, "ratio assumption", ok,
            f"first-quarter median ratio {med:.3f}, "
            f"identical-holdout control exactly 1: {control_exact}")


def test_criterion_10_sweep_trends(sweep_runs):
    outs, elapsed = sweep_runs
    noise = [r for r in read_rows(outs["sweep_noise"] / "sweep.csv")
             if r["seed"] == "mean"]
    vals = [float(r["value"]) for r in noise]
    rho_gen = float(spearmanr(vals, [float(r["gen_error"]) for r in noise]).statistic)
    rho_c = float(spearmanr(vals, [float(r["C_final"]) for r in noise]).statistic)

    lr = [r for r in read_rows(outs["sweep_lr"] / "sweep.csv")
          if r["seed"] == "mean"]
    rho_lr = float(spearmanr([float(r["value"]) for r in lr],
                             [float(r["C_final"]) for r in lr]).statistic)
    total = sum(elapsed.values())
    ok = rho_gen > 0.8 and rho_c > 0.8 and rho_lr < -0.8 and total < 120
    verdict(10, "sweep trends", ok,
            f"noise: gen rho {rho_gen:.2f}, C rho {rho_c:.2f}; "
            f"lr: C rho {rho_lr:.2f}; {total:.0f}s")


def test_criterion_11_tracking(track_run):
    _, out = track_run
    rows = read_rows(out / "track.csv")
    f_plus_c = np.array([float(r["F_plus_C"]) for r in rows])
    f_holdout = np.array([float(r["F_Sprime"]) for r in rows])
    corr = float(np.corrcoef(f_plus_c, f_holdout)[0, 1])

    ratios = np.abs([float(r["dC_dF"]) for r in rows if r["dC_dF"]])
    q = len(ratios) // 4
    first_med = float(np.median(ratios[:q]))
    final_med = float(np.median(ratios[-q:]))
    ok = corr > 0.8 and final_med > first_med
    verdict(11, "tracking", ok,
            f"corr(F_S + C, F_holdout) {corr:.3f}; |dC/dF| median "
            f"first quarter {first_med:.2f} -> final quarter {final_med:.2f}")


def test_criterion_12_determinism(toy_table_run, assumption_run,
                                  tmp_path_factory):
    _, toy_out, _, _ = toy_table_run
    toy_again = tmp_path_factory.mktemp("toy_again")
    cmd_toy_table(shipped("toy_table", toy_again))

    _, asm_out = assumption_run
    asm_again = tmp_path_factory.mktemp("assumption_again")
    cmd_assumption(shipped("assumption", asm_again))

    pairs = [
        (toy_out / "toy_table.csv", toy_again / "toy_table.csv"),
        (toy_out / "bounds.csv", toy_again / "bounds.csv"),
        (asm_out / "assumption.csv", asm_again / "assumption.csv"),
    ]
    identical = all(a.read_bytes() == b.read_bytes() for a, b in pairs)
    verdict(12, "determinism", identical,
            f"{len(pairs)} CSV files byte-compared across repeat runs")
