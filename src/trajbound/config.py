"""Flat key-value experiment configuration.

The file format is one dotted key per line, `key = value`, with full-line
# comments and blank lines ignored. Unknown keys, duplicate keys and values
that do not parse are rejected with the key and line named; out-of-range
values and rules that span keys are rejected by validate_config with the
key named. Defaults are per experiment; a file only has to state what
differs from its experiment's preset. emit_config writes the canonical
form, and parse(emit(cfg)) reproduces cfg exactly where the fields that
cfg's shape does not write hold their preset values.

Each key is one _KEYS row: the field it sets, its parser, the sentinel
spellings that read as None (in any letter case; the first is the one
written), the config shapes in which emit_config writes it and, as its
needs, the range of values it takes in those shapes. Each experiment's
preset is one _PRESETS entry, and the key each sweep varies one SWEEPS
entry. optim.batch_size = none means the full batch, which is GD.

Keys, in emit order (shape in parentheses):
  experiment              toy_table | track | assumption | sweep_noise |
                          sweep_lr | eos
  seeds                   comma-separated distinct non-negative integers;
                          exactly one for track, assumption and eos
  output_dir              directory for CSV/SVG/meta outputs; no sentinel
  dataset.n_train, dataset.n_test, dataset.dim  the toy dataset's sizes
  noise.flip_fraction     fraction of training labels flipped (not in
                          sweep_noise)
  model.kind              linear | mlp
  model.hidden            comma-separated widths >= 1 (mlp)
  optim.batch_size        1 to n (sgd), or "none" for the full batch (gd)
  optim.epochs | optim.max_steps   exactly one of the two; the other "none"
  optim.stop_train_loss   early-stop threshold or "none"
  optim.snapshot_every    positive step count, or "epoch" / "none" (eos
                          takes 1 or epoch, at optim.batch_size = none)
  schedule.kind           constant | inverse_time | cosine; cosine decays
                          from eta0 to 0 over the run
  schedule.eta0           initial step size           (constant, cosine;
                                                       not in sweep_lr)
  schedule.c              inverse-time c/(beta(t+1)), beta the smoothness
                          estimated from the data at w0 at run time
  sweep.values            comma-separated distinct grid values (sweeps),
                          each in the range of the key SWEEPS says the
                          sweep varies
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass, replace

from .errors import ConfigError


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seeds: tuple[int, ...] = (0, 1, 2)
    output_dir: str = "out"
    n_train: int = 100
    n_test: int = 1000
    dim: int = 20
    flip_fraction: float = 0.0
    model_kind: str = "linear"
    hidden: tuple[int, ...] = (32,)
    batch_size: int | None = 10  # None means the full batch: gd
    epochs: int | None = 200
    max_steps: int | None = None
    stop_train_loss: float | None = None
    snapshot_every: int | None = None  # None means once per epoch
    schedule_kind: str = "constant"
    eta0: float = 0.05
    c: float = 1.0
    sweep_values: tuple[float, ...] | None = None


# experiment -> the fields its preset sets apart from ExperimentConfig's
# defaults; the order here is the order of EXPERIMENTS
_PRESETS = {
    "toy_table": dict(schedule_kind="inverse_time"),
    "track": dict(seeds=(0,), model_kind="mlp", hidden=(8,), flip_fraction=0.15,
                  schedule_kind="cosine", epochs=800),
    "assumption": dict(seeds=(0,), model_kind="mlp", batch_size=None, eta0=0.008,
                       epochs=None, max_steps=800, snapshot_every=4),
    "sweep_noise": dict(model_kind="mlp", epochs=400, stop_train_loss=0.005,
                        sweep_values=(0.0, 0.1, 0.2, 0.3)),
    "sweep_lr": dict(model_kind="mlp", hidden=(8,), flip_fraction=0.15, eta0=0.1,
                     epochs=400, stop_train_loss=0.001,
                     sweep_values=(0.1, 0.2, 0.3, 0.5, 0.8)),
    "eos": dict(seeds=(0,), model_kind="mlp", batch_size=None, snapshot_every=1),
}
EXPERIMENTS = tuple(_PRESETS)
# sweep experiment -> (its sweep.csv label, the key whose value each cell
# takes from sweep.values)
SWEEPS = {"sweep_noise": ("noise", "noise.flip_fraction"),
          "sweep_lr": ("lr", "schedule.eta0")}
SINGLE_RUN = ("track", "assumption", "eos")  # each trains its one seed's run


def default_config(experiment: str) -> ExperimentConfig:
    """Preset for each experiment; files override individual keys."""
    if experiment not in _PRESETS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; expected one of {', '.join(EXPERIMENTS)}"
        )
    return ExperimentConfig(experiment, **_PRESETS[experiment])


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


def _parse_text(key, raw):
    return raw


def _list(parse):
    def parse_list(key, raw):
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        if not parts:
            raise ConfigError(f"{key}: expected a comma-separated list, got {raw!r}")
        return tuple(parse(key, p) for p in parts)
    return parse_list


def _choice(*values):
    def parse(key, raw):
        if raw not in values:
            raise ConfigError(f"{key}: expected one of {', '.join(values)}, got {raw!r}")
        return raw
    return parse


def _always(cfg):
    return True


def _when(attr, value):
    return lambda cfg: getattr(cfg, attr) == value


def _unless(attr, value):
    return lambda cfg: getattr(cfg, attr) != value


def _sweep(cfg):
    return cfg.experiment in SWEEPS


@dataclass(frozen=True)
class _Key:
    """One config key: the field it sets and how its value is read, written and checked.

    A value whose lower-cased text is one of `none` reads as None, and None is
    written as `none[0]`; any other value goes to `parse(key, raw)`.
    emit_config writes the key only for configs where `applies(cfg)` holds.
    `needs` is (accepts, text): the key's range, the values v for which
    accepts(v) holds, written as the set it accepts so that NaN fails, and
    described by text. validate_config checks it where `applies(cfg)` holds.
    """
    attr: str
    parse: Callable[[str, str], object]
    none: tuple[str, ...] = ()
    applies: Callable[[ExperimentConfig], bool] = _always
    needs: tuple[Callable[[object], bool], str] | None = None


def _at_least(low):
    return lambda v: v >= low, f">= {low}"


def _each(needs):
    accepts, text = needs
    return lambda v: len(v) > 0 and all(map(accepts, v)), f"one or more values {text}"


def _distinct(needs):
    accepts, text = needs
    return lambda v: accepts(v) and len(set(v)) == len(v), f"{text}, each once"


_mlp = _when("model_kind", "mlp")
_inverse_time = _when("schedule_kind", "inverse_time")
_positive = (lambda v: v > 0, "> 0")
# a step size set from code may be +inf, which only the file parser rejects
_finite_positive = (lambda v: 0 < v < math.inf, "> 0 and finite")
# the OS rejects a path holding a NUL with ValueError, not OSError, and
# the empty path with FileNotFoundError only once the run is assembled
_path = (lambda v: v != "" and "\0" not in v, "a non-empty path without NUL")

# key -> row; the order here is the canonical emit order
_KEYS = {
    "experiment": _Key("experiment", _choice(*EXPERIMENTS)),
    "seeds": _Key("seeds", _list(_parse_int), needs=_distinct(_each(_at_least(0)))),
    "output_dir": _Key("output_dir", _parse_text, needs=_path),
    "dataset.n_train": _Key("n_train", _parse_int, needs=_at_least(2)),
    "dataset.n_test": _Key("n_test", _parse_int, needs=_at_least(1)),
    "dataset.dim": _Key("dim", _parse_int, needs=_at_least(1)),
    "noise.flip_fraction": _Key("flip_fraction", _parse_float,
                                needs=(lambda v: 0 <= v <= 1, "a value in [0, 1]")),
    "model.kind": _Key("model_kind", _choice("linear", "mlp")),
    "model.hidden": _Key("hidden", _list(_parse_int), applies=_mlp,
                         needs=_each(_at_least(1))),
    "optim.batch_size": _Key("batch_size", _parse_int, ("none",), needs=_at_least(1)),
    "optim.epochs": _Key("epochs", _parse_int, ("none",), _unless("epochs", None),
                         _at_least(0)),
    "optim.max_steps": _Key("max_steps", _parse_int, ("none",),
                            _unless("max_steps", None), _at_least(0)),
    "optim.stop_train_loss": _Key("stop_train_loss", _parse_float, ("none",),
                                  needs=_positive),
    "optim.snapshot_every": _Key("snapshot_every", _parse_int, ("epoch", "none"),
                                 needs=_at_least(1)),
    "schedule.kind": _Key("schedule_kind", _choice("constant", "inverse_time", "cosine")),
    "schedule.eta0": _Key("eta0", _parse_float, applies=_unless("schedule_kind", "inverse_time"),
                          needs=_finite_positive),
    "schedule.c": _Key("c", _parse_float, applies=_inverse_time, needs=_finite_positive),
    "sweep.values": _Key("sweep_values", _list(_parse_float), ("none",), _sweep),
}
# each sweep cell sets the key its sweep varies, so the sweep neither writes
# nor range-checks the config's own value of it
_KEYS.update({key: replace(_KEYS[key], applies=lambda cfg, e=experiment, a=_KEYS[key].applies:
                           cfg.experiment != e and a(cfg))
              for experiment, (_, key) in SWEEPS.items()})


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Each key's range, then the rules that span keys; every diagnostic names its key.

    A _KEYS row with needs is checked wherever its applies(cfg) holds, the
    shapes in which emit_config writes it; None passes it exactly where the
    row has a sentinel. A sweep's grid takes the range of the key SWEEPS
    says it varies.
    """
    def bad(key, msg):
        return ConfigError(f"{key}: {msg}")

    if cfg.experiment not in EXPERIMENTS:
        raise bad("experiment", f"unknown experiment {cfg.experiment!r}")
    for key, row in _KEYS.items():
        value = getattr(cfg, row.attr)
        if row.needs and row.applies(cfg) and not (
                row.none if value is None else row.needs[0](value)):
            either = f" or {row.none[0]}" if row.none else ""
            raise bad(key, f"needs {row.needs[1]}{either}, got {value!r}")
    if cfg.batch_size is not None and cfg.batch_size > cfg.n_train:
        raise bad("optim.batch_size",
                  f"needs <= dataset.n_train = {cfg.n_train}, got {cfg.batch_size}")
    if (cfg.epochs is None) == (cfg.max_steps is None):
        raise bad("optim.epochs", "set exactly one of optim.epochs or optim.max_steps")
    if _sweep(cfg):
        key = SWEEPS[cfg.experiment][1]
        accepts, text = _KEYS[key].needs
        if not (cfg.sweep_values and all(map(accepts, cfg.sweep_values))):
            raise bad("sweep.values", f"needs one or more values that {key} accepts "
                                      f"({text}), got {cfg.sweep_values!r}")
        # a repeated value would train its cells twice under one per_value key
        if len(set(cfg.sweep_values)) < len(cfg.sweep_values):
            raise bad("sweep.values", f"needs each value once, got {cfg.sweep_values!r}")
    elif cfg.sweep_values is not None:
        raise bad("sweep.values", f"not valid for {cfg.experiment}, which sweeps nothing")
    if cfg.experiment in SINGLE_RUN and len(cfg.seeds) > 1:
        raise bad("seeds", f"needs one seed for {cfg.experiment}, got {cfg.seeds!r}")
    # eos plots sharpness against 2/eta, the stability threshold of full-batch
    # gd, and its one-step rp/trp need a snapshot every step (or epoch, at b = n)
    if cfg.experiment == "eos" and cfg.batch_size is not None:
        raise bad("optim.batch_size", f"needs none for eos, got {cfg.batch_size!r}")
    if cfg.experiment == "eos" and cfg.snapshot_every not in (None, 1):
        raise bad("optim.snapshot_every",
                  f"needs 1 or epoch for eos, got {cfg.snapshot_every!r}")
    if cfg.experiment == "sweep_lr" and cfg.schedule_kind != "constant":
        raise bad("schedule.kind",
                  "sweep_lr varies a constant step size; schedule.kind must be constant")
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


def _fmt_value(v) -> str:
    # the numbers ABCs also cover numpy scalars, whose repr names their type
    if isinstance(v, tuple):
        return ",".join(_fmt_value(x) for x in v)
    if isinstance(v, numbers.Integral):
        return str(int(v))
    if isinstance(v, numbers.Real):
        return repr(float(v))
    return str(v)


def emit_config(cfg: ExperimentConfig) -> str:
    lines = []
    for key, row in _KEYS.items():
        if row.applies(cfg):
            value = getattr(cfg, row.attr)
            lines.append(f"{key} = {row.none[0] if value is None else _fmt_value(value)}")
    return "\n".join(lines) + "\n"


def _parse_value(key, raw):
    row = _KEYS[key]
    return None if raw.lower() in row.none else row.parse(key, raw)


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

    overrides = {}
    for key, (raw, lineno) in seen.items():
        try:
            overrides[_KEYS[key].attr] = _parse_value(key, raw)
        except ConfigError as exc:
            raise ConfigError(f"{source}:{lineno}: {exc}") from None
    cfg = default_config(overrides["experiment"])
    # an explicit epochs/max_steps override replaces the preset's choice
    if "epochs" in overrides and "max_steps" not in overrides:
        overrides.setdefault("max_steps", None)
    if "max_steps" in overrides and "epochs" not in overrides:
        overrides.setdefault("epochs", None)
    cfg = replace(cfg, **overrides)
    return validate_config(cfg)


def parse_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return parse_config_text(text, source=str(path))
