"""Flat key-value experiment configuration.

The file format is one dotted key per line, `key = value`, with full-line
# comments and blank lines ignored. Unknown keys, duplicate keys, and
out-of-range values are rejected with the key and line named. Defaults are
per experiment; a file only has to state what differs from its
experiment's preset. emit_config writes the canonical form, and
parse(emit(cfg)) reproduces cfg exactly.

Keys (see default_config for per-experiment defaults):
  experiment              toy_table | track | assumption | sweep_noise |
                          sweep_lr | eos
  seeds                   comma-separated non-negative integers
  output_dir              directory for CSV/SVG/meta outputs
  dataset.kind            toy | csv
  dataset.n_train, dataset.n_test, dataset.dim        (toy)
  dataset.path, dataset.label_column,
  dataset.holdout_fraction                            (csv)
  noise.flip_fraction     fraction of training labels flipped
  model.kind              linear | mlp
  model.hidden            comma-separated widths      (mlp)
  model.loss              squared | cross_entropy
  optim.mode              gd | sgd
  optim.batch_size        sgd only; gd always uses the full batch
  optim.epochs | optim.max_steps   exactly one of the two
  optim.stop_train_loss   early-stop threshold or "none"
  optim.snapshot_every    positive step count or "epoch"
  schedule.kind           constant | inverse_time | cosine
  schedule.eta0           constant / cosine initial step size
  schedule.c, schedule.beta        inverse-time c/(beta(t+1)); beta may be
                          "auto" (estimated from data at run time)
  schedule.eta_min, schedule.t_max (cosine; t_max "auto" = run length)
  est.k_samples           Monte-Carlo sign draws for V and gamma'
  sweep.param             noise | lr   (sweep experiments only)
  sweep.values            comma-separated grid values
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ConfigError

EXPERIMENTS = ("toy_table", "track", "assumption", "sweep_noise", "sweep_lr", "eos")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seeds: tuple[int, ...] = (0, 1, 2)
    output_dir: str = "out"
    dataset_kind: str = "toy"
    n_train: int = 100
    n_test: int = 1000
    dim: int = 20
    csv_path: str | None = None
    label_column: str | None = None
    holdout_fraction: float = 0.5
    flip_fraction: float = 0.0
    model_kind: str = "linear"
    hidden: tuple[int, ...] = (32,)
    loss: str = "squared"
    mode: str = "sgd"
    batch_size: int | None = 10
    epochs: int | None = 200
    max_steps: int | None = None
    stop_train_loss: float | None = None
    snapshot_every: int | None = None  # None means once per epoch
    schedule_kind: str = "constant"
    eta0: float = 0.05
    c: float = 1.0
    beta: float | None = None  # None means estimate from data at run time
    eta_min: float = 0.0
    t_max: int | None = None  # None means the run length
    k_samples: int = 1024
    sweep_param: str | None = None
    sweep_values: tuple[float, ...] | None = None


def default_config(experiment: str) -> ExperimentConfig:
    """Preset for each experiment; files override individual keys."""
    if experiment == "toy_table":
        return ExperimentConfig(
            experiment, schedule_kind="inverse_time", c=1.0, beta=None,
            model_kind="linear", epochs=200,
        )
    if experiment == "track":
        return ExperimentConfig(
            experiment, model_kind="mlp", hidden=(8,), flip_fraction=0.15,
            schedule_kind="cosine", eta0=0.05, epochs=800,
        )
    if experiment == "assumption":
        return ExperimentConfig(
            experiment, model_kind="mlp", mode="gd", batch_size=None,
            schedule_kind="constant", eta0=0.008, epochs=None, max_steps=800,
            snapshot_every=4,
        )
    if experiment == "sweep_noise":
        return ExperimentConfig(
            experiment, model_kind="mlp", schedule_kind="constant", eta0=0.05,
            epochs=400, stop_train_loss=0.005,
            sweep_param="noise", sweep_values=(0.0, 0.1, 0.2, 0.3),
        )
    if experiment == "sweep_lr":
        return ExperimentConfig(
            experiment, model_kind="mlp", hidden=(8,), flip_fraction=0.15,
            schedule_kind="constant", eta0=0.1, epochs=400,
            stop_train_loss=0.001,
            sweep_param="lr", sweep_values=(0.1, 0.2, 0.3, 0.5, 0.8),
        )
    if experiment == "eos":
        return ExperimentConfig(
            experiment, model_kind="mlp", mode="gd", batch_size=None,
            schedule_kind="constant", eta0=0.05, epochs=200, snapshot_every=1,
        )
    raise ConfigError(
        f"unknown experiment {experiment!r}; expected one of {', '.join(EXPERIMENTS)}"
    )


def _parse_int(key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_float(key, raw):
    try:
        v = float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if not math.isfinite(v):
        raise ConfigError(f"{key}: must be finite, got {raw!r}")
    return v


def _parse_int_list(key, raw):
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{key}: expected a comma-separated list, got {raw!r}")
    return tuple(_parse_int(key, p) for p in parts)


def _parse_float_list(key, raw):
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{key}: expected a comma-separated list, got {raw!r}")
    return tuple(_parse_float(key, p) for p in parts)


def _parse_choice(key, raw, choices):
    if raw not in choices:
        raise ConfigError(f"{key}: expected one of {', '.join(choices)}, got {raw!r}")
    return raw


def _opt(parser):
    def parse(key, raw):
        if raw.lower() == "none":
            return None
        return parser(key, raw)
    return parse


def _fmt_value(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, tuple):
        return ",".join(_fmt_value(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


# key -> (attribute, parser); order here is the canonical emit order
_KEYS = {
    "experiment": ("experiment",
                   lambda k, r: _parse_choice(k, r, EXPERIMENTS)),
    "seeds": ("seeds", _parse_int_list),
    "output_dir": ("output_dir", lambda k, r: r),
    "dataset.kind": ("dataset_kind",
                     lambda k, r: _parse_choice(k, r, ("toy", "csv"))),
    "dataset.n_train": ("n_train", _parse_int),
    "dataset.n_test": ("n_test", _parse_int),
    "dataset.dim": ("dim", _parse_int),
    "dataset.path": ("csv_path", _opt(lambda k, r: r)),
    "dataset.label_column": ("label_column", _opt(lambda k, r: r)),
    "dataset.holdout_fraction": ("holdout_fraction", _parse_float),
    "noise.flip_fraction": ("flip_fraction", _parse_float),
    "model.kind": ("model_kind",
                   lambda k, r: _parse_choice(k, r, ("linear", "mlp"))),
    "model.hidden": ("hidden", _parse_int_list),
    "model.loss": ("loss",
                   lambda k, r: _parse_choice(k, r, ("squared", "cross_entropy"))),
    "optim.mode": ("mode", lambda k, r: _parse_choice(k, r, ("gd", "sgd"))),
    "optim.batch_size": ("batch_size", _opt(_parse_int)),
    "optim.epochs": ("epochs", _opt(_parse_int)),
    "optim.max_steps": ("max_steps", _opt(_parse_int)),
    "optim.stop_train_loss": ("stop_train_loss", _opt(_parse_float)),
    "optim.snapshot_every": ("snapshot_every",
                             lambda k, r: None if r in ("epoch", "none")
                             else _parse_int(k, r)),
    "schedule.kind": ("schedule_kind",
                      lambda k, r: _parse_choice(
                          k, r, ("constant", "inverse_time", "cosine"))),
    "schedule.eta0": ("eta0", _parse_float),
    "schedule.c": ("c", _parse_float),
    "schedule.beta": ("beta",
                      lambda k, r: None if r == "auto" else _parse_float(k, r)),
    "schedule.eta_min": ("eta_min", _parse_float),
    "schedule.t_max": ("t_max",
                       lambda k, r: None if r == "auto" else _parse_int(k, r)),
    "est.k_samples": ("k_samples", _parse_int),
    "sweep.param": ("sweep_param",
                    _opt(lambda k, r: _parse_choice(k, r, ("noise", "lr")))),
    "sweep.values": ("sweep_values", _opt(_parse_float_list)),
}

# value rendering quirks on emit: tokens that aren't plain _fmt_value output
_EMIT_SPECIAL = {
    "schedule.beta": lambda v: "auto" if v is None else repr(float(v)),
    "schedule.t_max": lambda v: "auto" if v is None else str(v),
    "optim.snapshot_every": lambda v: "epoch" if v is None else str(v),
}


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Cross-field checks; every diagnostic names the offending key."""
    def bad(key, msg):
        return ConfigError(f"{key}: {msg}")

    if cfg.experiment not in EXPERIMENTS:
        raise bad("experiment", f"unknown experiment {cfg.experiment!r}")
    if not cfg.seeds:
        raise bad("seeds", "at least one seed is required")
    if min(cfg.seeds) < 0:
        raise bad("seeds", f"needs non-negative values, got {min(cfg.seeds)}")
    # the OS rejects a path holding a NUL with ValueError, not OSError
    if "\0" in cfg.output_dir:
        raise bad("output_dir", "a path cannot contain a NUL character")
    if cfg.dataset_kind == "toy":
        if cfg.n_train < 2:
            raise bad("dataset.n_train", f"needs >= 2, got {cfg.n_train}")
        if cfg.n_test < 1:
            raise bad("dataset.n_test", f"needs >= 1, got {cfg.n_test}")
        if cfg.dim < 1:
            raise bad("dataset.dim", f"needs >= 1, got {cfg.dim}")
    else:
        if not cfg.csv_path:
            raise bad("dataset.path", "required when dataset.kind = csv")
        if "\0" in cfg.csv_path:
            raise bad("dataset.path", "a path cannot contain a NUL character")
        if not cfg.label_column:
            raise bad("dataset.label_column", "required when dataset.kind = csv")
        if not 0.0 < cfg.holdout_fraction < 1.0:
            raise bad("dataset.holdout_fraction",
                      f"needs a value in (0, 1), got {cfg.holdout_fraction}")
    if not 0.0 <= cfg.flip_fraction <= 1.0:
        raise bad("noise.flip_fraction", f"needs [0, 1], got {cfg.flip_fraction}")
    if cfg.model_kind == "mlp" and not cfg.hidden:
        raise bad("model.hidden", "mlp needs at least one hidden width")
    if cfg.mode == "gd" and cfg.batch_size is not None:
        raise bad("optim.batch_size", "gd always uses the full batch; drop the key")
    if cfg.mode == "sgd" and (cfg.batch_size is None or cfg.batch_size < 1):
        raise bad("optim.batch_size", f"sgd needs a positive size, got {cfg.batch_size}")
    if (cfg.epochs is None) == (cfg.max_steps is None):
        raise bad("optim.epochs", "set exactly one of optim.epochs or optim.max_steps")
    horizon = cfg.epochs if cfg.epochs is not None else cfg.max_steps
    if horizon < 0:
        raise bad("optim.epochs" if cfg.epochs is not None else "optim.max_steps",
                  f"needs >= 0, got {horizon}")
    if cfg.stop_train_loss is not None and cfg.stop_train_loss <= 0:
        raise bad("optim.stop_train_loss", f"needs > 0, got {cfg.stop_train_loss}")
    if cfg.snapshot_every is not None and cfg.snapshot_every < 1:
        raise bad("optim.snapshot_every", f"needs >= 1, got {cfg.snapshot_every}")
    if cfg.schedule_kind in ("constant", "cosine") and cfg.eta0 <= 0:
        raise bad("schedule.eta0", f"needs > 0, got {cfg.eta0}")
    if cfg.schedule_kind == "inverse_time":
        if cfg.c <= 0:
            raise bad("schedule.c", f"needs > 0, got {cfg.c}")
        if cfg.beta is not None and cfg.beta <= 0:
            raise bad("schedule.beta", f"needs > 0 or auto, got {cfg.beta}")
    if cfg.schedule_kind == "cosine":
        if not 0.0 <= cfg.eta_min <= cfg.eta0:
            raise bad("schedule.eta_min",
                      f"needs 0 <= eta_min <= eta0, got {cfg.eta_min}")
        if cfg.t_max is not None and cfg.t_max < 1:
            raise bad("schedule.t_max", f"needs >= 1 or auto, got {cfg.t_max}")
    if cfg.k_samples < 1:
        raise bad("est.k_samples", f"needs >= 1, got {cfg.k_samples}")

    is_sweep = cfg.experiment in ("sweep_noise", "sweep_lr")
    if is_sweep:
        want = "noise" if cfg.experiment == "sweep_noise" else "lr"
        if cfg.sweep_param != want:
            raise bad("sweep.param",
                      f"{cfg.experiment} requires {want!r}, got {cfg.sweep_param!r}")
        if not cfg.sweep_values:
            raise bad("sweep.values", "a non-empty grid is required")
        if want == "noise" and not all(0.0 <= v <= 1.0 for v in cfg.sweep_values):
            raise bad("sweep.values", "noise fractions must lie in [0, 1]")
        if want == "lr" and not all(v > 0 for v in cfg.sweep_values):
            raise bad("sweep.values", "step sizes must be positive")
        if want == "lr" and cfg.schedule_kind != "constant":
            raise bad("schedule.kind",
                      "sweep_lr varies a constant step size; "
                      "schedule.kind must be constant")
    else:
        if cfg.sweep_param is not None or cfg.sweep_values is not None:
            raise bad("sweep.param", f"sweep keys are not valid for {cfg.experiment}")
    if cfg.experiment == "toy_table" and cfg.schedule_kind != "inverse_time":
        raise bad("schedule.kind",
                  "toy_table compares against inverse-time-rate baselines; "
                  "schedule.kind must be inverse_time")
    if cfg.experiment == "toy_table" and cfg.model_kind != "linear":
        raise bad("model.kind",
                  "toy_table's smooth bound needs the schedule's beta to be the "
                  "trajectory's smoothness, which a schedule fixed before "
                  "training carries only when the Hessian does not depend on "
                  "w; model.kind must be linear")
    return cfg


def _relevant_keys(cfg: ExperimentConfig) -> list[str]:
    """Canonical emit set: keys that apply to this config's shape."""
    keys = []
    for key, (attr, _) in _KEYS.items():
        if key in ("dataset.n_train", "dataset.n_test", "dataset.dim"):
            if cfg.dataset_kind != "toy":
                continue
        if key in ("dataset.path", "dataset.label_column", "dataset.holdout_fraction"):
            if cfg.dataset_kind != "csv":
                continue
        if key in ("model.hidden", "model.loss"):
            if cfg.model_kind != "mlp":
                continue
        if key == "optim.batch_size" and cfg.mode == "gd":
            continue
        if key == "optim.epochs" and cfg.epochs is None:
            continue
        if key == "optim.max_steps" and cfg.max_steps is None:
            continue
        if key == "schedule.eta0" and cfg.schedule_kind == "inverse_time":
            continue
        if key in ("schedule.c", "schedule.beta") and cfg.schedule_kind != "inverse_time":
            continue
        if key in ("schedule.eta_min", "schedule.t_max") and cfg.schedule_kind != "cosine":
            continue
        if key in ("sweep.param", "sweep.values") and cfg.sweep_param is None:
            continue
        keys.append(key)
    return keys


def emit_config(cfg: ExperimentConfig) -> str:
    lines = []
    for key in _relevant_keys(cfg):
        attr, _ = _KEYS[key]
        value = getattr(cfg, attr)
        render = _EMIT_SPECIAL.get(key, _fmt_value)
        lines.append(f"{key} = {render(value)}")
    return "\n".join(lines) + "\n"


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    seen: dict[str, tuple[str, int]] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(
                f"{source}:{lineno}: duplicate key {key!r} "
                f"(first set on line {seen[key][1]})"
            )
        seen[key] = (raw, lineno)
    if "experiment" not in seen:
        raise ConfigError(f"{source}: missing required key 'experiment'")

    experiment = _KEYS["experiment"][1]("experiment", seen["experiment"][0])
    cfg = default_config(experiment)
    overrides = {}
    for key, (raw, lineno) in seen.items():
        attr, parser = _KEYS[key]
        try:
            overrides[attr] = parser(key, raw)
        except ConfigError as exc:
            raise ConfigError(f"{source}:{lineno}: {exc}") from None
    # an explicit epochs/max_steps override replaces the preset's choice
    if "epochs" in overrides and "max_steps" not in overrides:
        overrides.setdefault("max_steps", None)
    if "max_steps" in overrides and "epochs" not in overrides:
        overrides.setdefault("epochs", None)
    cfg = replace(cfg, **overrides)
    return validate_config(cfg)


def parse_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return parse_config_text(text, source=str(path))
