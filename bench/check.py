"""Output checks for one experiment run.

`check_outputs` raises CheckError on the first problem. With the shipped
config and the shipped seeds it compares against the reference outputs in
reference/ (recorded from the seed commit) and asserts the paper-level
invariants; otherwise it checks structure and finiteness only.

Comparison levels:
  exact       headers, row counts, seed/value/diverged/method and integer
              columns; sweep `stopped_at` within one snapshot interval
  REL         ulp-level drift on trajectory statistics and bound values
  SOLVER_REL  solver outputs (`sharpness`, `beta_hat`): 100 x the power
              iteration's stopping tolerance, relative. The stopping rule
              bounds the last Rayleigh-quotient step, so the error is
              tol * rho / (1 - rho) for convergence factor rho; the factor 100
              admits rho up to 0.99 (the eigenvalues here are 1.7 to 2.2).
"""

from __future__ import annotations

import csv
import json
import math
import os

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
REL = 1e-8
ABS_FLOOR = 1e-12
# eos calls power iteration with tol=1e-7; estimate_constants uses the
# default tol=1e-9 (and an exact eigvalsh for the linear model).
SOLVER_REL = {"sharpness": 100 * 1e-7, "beta_hat": 100 * 1e-9}
# sweep_noise snapshots once per epoch: ceil(n_train / batch) = 100 / 10.
SWEEP_SNAPSHOT_INTERVAL = 10

OUTPUTS = {
    "toy_table": ("toy_table.csv", "bounds.csv"),
    "sweep_noise": ("sweep.csv",),
    "eos": ("eos.csv",),
}
BOUND_METHODS = ("ours_main", "ours_smooth", "ours_relaxed", "hardt_convex",
                 "hardt_nonconvex", "zhang", "bassily")
# Columns compared as exact strings; the rest are numbers compared by tolerance.
EXACT_COLUMNS = {
    "toy_table.csv": {"seed"},
    "bounds.csv": {"seed", "method", "T0", "n", "T", "b"},
    "sweep.csv": {"sweep_param", "value", "seed", "diverged"},
    "eos.csv": {"t", "epoch"},
}
TEXT_COLUMNS = {"seed", "method", "sweep_param"}


class CheckError(Exception):
    pass


def read_csv(path: str) -> tuple[list[str], list[dict[str, str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
        return list(reader.fieldnames or []), rows


def _float(cell: str, where: str) -> float:
    try:
        x = float(cell)
    except ValueError:
        raise CheckError(f"{where}: {cell!r} is not a number") from None
    if not math.isfinite(x):
        raise CheckError(f"{where}: non-finite value {cell}")
    return x


def _finite_cells(name: str, rows) -> None:
    for i, row in enumerate(rows):
        for col, cell in row.items():
            if cell and col not in TEXT_COLUMNS:
                _float(cell, f"{name} row {i} {col}")


def _close(a: float, b: float, rel: float, where: str) -> None:
    if abs(a - b) > rel * max(abs(a), abs(b)) + ABS_FLOOR:
        raise CheckError(f"{where}: {a!r} differs from reference {b!r} "
                         f"(relative tolerance {rel:g})")


def read_config(path: str) -> dict[str, str]:
    """The `key = value` lines of a config file."""
    keys = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                key, _, value = line.partition("=")
                keys[key.strip()] = value.strip()
    return keys


def _expected_keys(experiment: str, cfg: dict[str, str], seeds) -> list[tuple]:
    """The identity columns of every row an output must have, in order."""
    seeds = [str(s) for s in seeds]
    if experiment == "toy_table":
        return [(s,) for s in seeds + ["mean"]]
    if experiment == "sweep_noise":
        return [(repr(float(v)), s) for v in cfg["sweep.values"].split(",")
                for s in seeds + ["mean"]]
    # eos: full-batch GD snapshots every step, from t = 0 to the horizon.
    steps = int(cfg.get("optim.max_steps") or cfg["optim.epochs"])
    return [(str(t),) for t in range(steps + 1)]


def _check_structure(experiment: str, cfg: dict[str, str], seeds, out_dir: str,
                     ref_headers) -> dict:
    tables = {}
    for name in OUTPUTS[experiment]:
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            raise CheckError(f"{name} was not written")
        header, rows = read_csv(path)
        if header != ref_headers[name]:
            raise CheckError(f"{name}: header {header} != {ref_headers[name]}")
        _finite_cells(name, rows)
        tables[name] = rows

    first = tables[OUTPUTS[experiment][0]]
    if experiment == "toy_table":
        got = [(r["seed"],) for r in first]
        bounds_keys = [(r["seed"], r["method"]) for r in tables["bounds.csv"]]
        want_bounds = [(str(s), m) for s in seeds for m in BOUND_METHODS]
        if bounds_keys != want_bounds:
            raise CheckError(f"bounds.csv rows {bounds_keys} != {want_bounds}")
    elif experiment == "sweep_noise":
        got = [(r["value"], r["seed"]) for r in first]
        for i, r in enumerate(first):
            if r["sweep_param"] != "noise":
                raise CheckError(f"sweep.csv row {i}: sweep_param {r['sweep_param']}")
            if r["seed"] != "mean" and r["diverged"] not in ("0", "1"):
                raise CheckError(f"sweep.csv row {i}: diverged {r['diverged']!r}")
            if r["diverged"] == "0" and not (r["gen_error"] and r["C_final"]):
                raise CheckError(f"sweep.csv row {i}: empty metric on a finished cell")
    else:
        got = [(r["t"],) for r in first]
        if any(not cell for r in first[1:] for cell in r.values()):
            raise CheckError("eos.csv: empty cell after the first row")
    want = _expected_keys(experiment, cfg, seeds)
    if got != want:
        raise CheckError(f"{experiment}: rows {got} != expected {want}")

    with open(os.path.join(out_dir, "meta.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    if meta.get("experiment") != experiment or meta.get("seeds") != list(seeds):
        raise CheckError(f"meta.json: experiment/seeds {meta.get('experiment')}, "
                         f"{meta.get('seeds')} != {experiment}, {list(seeds)}")
    if experiment == "eos" and meta.get("diverged_at") is not None:
        raise CheckError(f"eos diverged at step {meta['diverged_at']}")
    return tables


def _compare(name: str, rows, ref_rows) -> None:
    """Cell-by-cell comparison of one output against its reference."""
    if len(rows) != len(ref_rows):
        raise CheckError(f"{name}: {len(rows)} rows, reference has {len(ref_rows)}")
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        skip_floats = False
        if "stopped_at" in row and row["stopped_at"] != ref["stopped_at"]:
            # Ulp drift may move the early stop across one snapshot; the
            # row's statistics then come from another step and are only
            # checked for finiteness.
            if abs(float(row["stopped_at"]) - float(ref["stopped_at"])) > \
                    SWEEP_SNAPSHOT_INTERVAL:
                raise CheckError(f"{name} row {i}: stopped_at {row['stopped_at']} "
                                 f"vs reference {ref['stopped_at']}")
            skip_floats = True
        for col, cell in row.items():
            where = f"{name} row {i} {col}"
            want = ref[col]
            if col in EXACT_COLUMNS[name] or not want or not cell:
                if cell != want:
                    raise CheckError(f"{where}: {cell!r} != reference {want!r}")
            elif col == "stopped_at" or skip_floats:
                continue
            else:
                _close(float(cell), float(want), SOLVER_REL.get(col, REL), where)


def _check_invariants(experiment: str, tables) -> None:
    if experiment == "toy_table":
        mean = tables["toy_table.csv"][-1]
        gen, ours, hardt, zhang = (float(mean[c]) for c in
                                   ("gen_error", "ours_main", "hardt_nonconvex", "zhang"))
        if not gen <= ours <= hardt:
            raise CheckError(f"toy_table mean: gen {gen} <= ours_main {ours} "
                             f"<= hardt_nonconvex {hardt} fails")
        if not zhang / ours > 100:
            raise CheckError(f"toy_table mean: zhang/ours_main {zhang / ours} <= 100")
    elif experiment == "sweep_noise":
        means = [r for r in tables["sweep.csv"] if r["seed"] == "mean"]
        for col in ("gen_error", "C_final"):
            vals = [float(r[col]) for r in means]
            if any(b <= a for a, b in zip(vals, vals[1:])):
                raise CheckError(f"sweep_noise: mean {col} {vals} does not rise "
                                 f"with noise")


def check_outputs(experiment: str, config_path: str, seeds, out_dir: str,
                  full: bool) -> None:
    """Raise CheckError unless the run's outputs pass.

    `full` selects the reference comparison and the invariants, valid only
    for the shipped config with the shipped seeds.
    """
    refs = {name: read_csv(os.path.join(REFERENCE_DIR, name))
            for name in OUTPUTS[experiment]}
    tables = _check_structure(experiment, read_config(config_path), seeds, out_dir,
                              {name: ref[0] for name, ref in refs.items()})
    if full:
        for name, rows in tables.items():
            _compare(name, rows, refs[name][1])
        _check_invariants(experiment, tables)
