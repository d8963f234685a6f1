"""Config parsing, validation, and the emit/parse round trip."""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trajbound.config import (
    _KEYS,
    EXPERIMENTS,
    SWEEPS,
    ExperimentConfig,
    _parse_float,
    default_config,
    emit_config,
    parse_config,
    parse_config_text,
    validate_config,
)
from trajbound.errors import ConfigError
from trajbound.experiments import assemble_run, cmd_eos


def test_minimal_config_fills_experiment_defaults():
    cfg = parse_config_text("experiment = toy_table\n")
    assert cfg.experiment == "toy_table"
    assert cfg.dim == 20
    assert cfg.batch_size == 10
    assert cfg.n_train == 100 and cfg.n_test == 1000
    assert cfg.epochs == 200 and cfg.max_steps is None
    assert cfg.schedule_kind == "inverse_time"
    assert cfg.beta is None  # estimated from data at run time
    assert cfg.seeds == (0, 1, 2)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_presets_validate_and_round_trip(experiment):
    cfg = default_config(experiment)
    assert validate_config(cfg) is cfg
    text = emit_config(cfg)
    assert parse_config_text(text) == cfg


def test_default_config_rejects_unknown_experiment():
    with pytest.raises(ConfigError, match="unknown experiment"):
        default_config("ablation")


def test_round_trip_survives_overrides():
    cfg = dataclasses.replace(
        default_config("toy_table"),
        seeds=(7, 8), batch_size=1, n_train=50, stop_train_loss=0.01,
        output_dir="elsewhere",
    )
    assert parse_config_text(emit_config(cfg)) == cfg


positive = st.floats(min_value=1e-6, max_value=10.0)


@st.composite
def drawn_configs(draw):
    """A preset with drawn distinct seeds, sizes, batch size and schedule.

    Only fields that the drawn shape emits are drawn: emit_config leaves the
    rest out, so parsing refills them from the preset.
    """
    cfg = default_config(draw(st.sampled_from(EXPERIMENTS)))
    horizon = draw(st.integers(0, 10_000))
    by_epochs = draw(st.booleans())
    fields = dict(
        seeds=tuple(draw(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=4,
                                  unique=True))),
        n_train=draw(st.integers(2, 500)), n_test=draw(st.integers(1, 5000)),
        dim=draw(st.integers(1, 64)),
        epochs=horizon if by_epochs else None, max_steps=None if by_epochs else horizon,
        stop_train_loss=draw(st.none() | positive),
        snapshot_every=draw(st.none() | st.integers(1, 100)),
        batch_size=draw(st.none() | st.integers(1, 200)),
    )
    kind = draw(st.sampled_from(("constant", "inverse_time", "cosine")))
    fields["schedule_kind"] = kind
    if kind == "inverse_time":
        fields.update(c=draw(positive), beta=draw(st.none() | positive))
    else:
        eta0 = draw(positive)
        if cfg.experiment != "sweep_lr":  # each sweep_lr cell sets its own eta0
            fields["eta0"] = eta0
        if kind == "cosine":
            fields.update(eta_min=eta0 * draw(st.floats(0.0, 1.0)),
                          t_max=draw(st.none() | st.integers(1, 10_000)))
    if draw(st.booleans()):  # a library caller may pass numpy scalars
        fields = {k: np.int64(v) if type(v) is int else np.float64(v) if type(v) is float
                  else v for k, v in fields.items()}
    return dataclasses.replace(cfg, **fields)


@settings(max_examples=200, deadline=None)
@given(cfg=drawn_configs())
def test_emit_then_parse_reproduces_any_valid_config(cfg):
    try:
        validate_config(cfg)
    except ConfigError:
        assume(False)
    assert parse_config_text(emit_config(cfg)) == cfg


def test_round_trip_csv_dataset_shape():
    cfg = dataclasses.replace(
        default_config("track"),
        dataset_kind="csv", csv_path="data.csv", label_column="y",
        holdout_fraction=0.25,
    )
    text = emit_config(cfg)
    assert "dataset.path = data.csv" in text
    assert "dataset.n_train" not in text
    assert parse_config_text(text) == cfg


def test_emit_omits_keys_outside_the_config_shape():
    text = emit_config(default_config("toy_table"))  # linear model, sgd
    assert "model.hidden" not in text
    assert "schedule.eta0" not in text  # inverse_time ignores eta0
    assert "schedule.beta = auto" in text
    assert "sweep.values" not in text
    assert "optim.batch_size = 10" in text

    gd_text = emit_config(default_config("assumption"))
    assert "\noptim.batch_size = none\n" in gd_text  # the full batch
    assert "optim.max_steps = 800" in gd_text
    assert "optim.epochs" not in gd_text

    cosine_text = emit_config(default_config("track"))
    assert "schedule.t_max = auto" in cosine_text
    assert "schedule.c" not in cosine_text

    # each sweep cell sets the key its sweep varies, so a value in the file
    # parses but is neither written nor range-checked (see the sweep cases of
    # test_keys_outside_the_config_shape_are_not_range_checked)
    for experiment, (_, key) in SWEEPS.items():
        cfg = parse_config_text(f"experiment = {experiment}\n{key} = 0.5\n")
        assert getattr(cfg, _KEYS[key].attr) == 0.5
        assert f"{key} =" not in emit_config(cfg)


def test_sentinel_values_parse():
    cfg = parse_config_text(
        "experiment = track\n"
        "optim.stop_train_loss = none\n"
        "optim.snapshot_every = epoch\n"
        "schedule.t_max = auto\n"
    )
    assert cfg.stop_train_loss is None
    assert cfg.snapshot_every is None
    assert cfg.t_max is None
    cfg2 = parse_config_text("experiment = toy_table\nschedule.beta = auto\n")
    assert cfg2.beta is None
    cfg3 = parse_config_text("experiment = toy_table\nschedule.beta = 3.5\n")
    assert cfg3.beta == 3.5


# key -> (a config text that accepts the key as None, fields under which
# emit_config writes the key, or None where a None value drops the key)
NONE_CONTEXTS = {
    "dataset.path": ("experiment = track", dict(dataset_kind="csv")),
    "dataset.label_column": ("experiment = track", dict(dataset_kind="csv")),
    "optim.batch_size": ("experiment = track", {}),
    "optim.epochs": ("experiment = track\noptim.max_steps = 50", None),
    "optim.max_steps": ("experiment = assumption\noptim.epochs = 5", None),
    "optim.stop_train_loss": ("experiment = track", {}),
    "optim.snapshot_every": ("experiment = track", {}),
    "schedule.beta": ("experiment = toy_table", {}),
    "schedule.t_max": ("experiment = track", {}),
    "sweep.values": ("experiment = eos", dict(experiment="sweep_noise")),
}


def test_every_sentinel_key_has_a_none_context():
    assert set(NONE_CONTEXTS) == {key for key, row in _KEYS.items() if row.none}


@pytest.mark.parametrize("key, spelling", [(key, spelling) for key, row in _KEYS.items()
                                           for spelling in row.none])
def test_sentinels_ignore_case_and_emit_their_first_spelling(key, spelling):
    row = _KEYS[key]
    context, shape = NONE_CONTEXTS[key]
    for raw in (spelling, spelling.upper(), spelling.capitalize(),
                spelling.capitalize().swapcase()):
        cfg = parse_config_text(f"{context}\n{key} = {raw}\n")
        assert getattr(cfg, row.attr) is None, raw
    if shape is None:
        assert f"{key} =" not in emit_config(cfg)
    else:
        assert f"\n{key} = {row.none[0]}\n" in emit_config(dataclasses.replace(cfg, **shape))


def test_output_dir_none_is_a_directory_name():
    for raw in ("none", "None"):
        cfg = parse_config_text(f"experiment = eos\noutput_dir = {raw}\n")
        assert cfg.output_dir == raw
        assert f"output_dir = {raw}\n" in emit_config(cfg)


def test_comments_and_blank_lines_are_ignored():
    cfg = parse_config_text(
        "# a comment\n"
        "\n"
        "experiment = eos\n"
        "   # indented comment\n"
        "seeds = 4\n"
    )
    assert cfg.seeds == (4,)


# model.activation, optim.sampling, est.n_sp and est.subset_mode are retired
# keys: each had one value in use and is rejected like any unknown key
@pytest.mark.parametrize("key", ["optim.lr", "model.activation", "optim.sampling",
                                 "est.n_sp", "est.subset_mode"])
def test_unknown_key_names_key_and_line(key):
    with pytest.raises(ConfigError, match=rf"<config>:3: unknown key '{key}'"):
        parse_config_text(f"experiment = eos\n\n{key} = none\n")


def test_duplicate_key_names_both_lines():
    with pytest.raises(ConfigError, match=r":3: duplicate key 'seeds' .*line 2"):
        parse_config_text("experiment = eos\nseeds = 1\nseeds = 2\n")


def test_missing_experiment_key():
    with pytest.raises(ConfigError, match="missing required key"):
        parse_config_text("seeds = 1\n")


def test_malformed_line_and_bad_values_name_the_source_line():
    with pytest.raises(ConfigError, match=r"<config>:1: expected 'key = value'"):
        parse_config_text("experiment toy_table\n")
    with pytest.raises(ConfigError, match=r":2: dataset.dim: expected an integer"):
        parse_config_text("experiment = eos\ndataset.dim = wide\n")
    with pytest.raises(ConfigError, match=r":2: schedule.eta0: expected a number"):
        parse_config_text("experiment = eos\nschedule.eta0 = fast\n")
    with pytest.raises(ConfigError, match="must be finite"):
        parse_config_text("experiment = eos\nschedule.eta0 = inf\n")
    with pytest.raises(ConfigError, match="expected one of"):
        parse_config_text("experiment = eos\nmodel.kind = cnn\n")
    with pytest.raises(ConfigError, match=r"<config>:2: experiment: expected one of"):
        parse_config_text("seeds = 1\nexperiment = foo\n")


def test_epochs_override_replaces_preset_max_steps():
    # the assumption preset counts steps; an epochs override must not leave
    # both horizons set
    cfg = parse_config_text("experiment = assumption\noptim.epochs = 5\n")
    assert cfg.epochs == 5 and cfg.max_steps is None
    cfg2 = parse_config_text("experiment = track\noptim.max_steps = 50\n")
    assert cfg2.max_steps == 50 and cfg2.epochs is None
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config_text(
            "experiment = track\noptim.epochs = 5\noptim.max_steps = 50\n"
        )
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config_text(
            "experiment = track\noptim.epochs = none\n"
        )


def test_batch_size_none_means_the_full_batch():
    # any experiment takes either: none trains with gd on all of S, a size
    # trains with sgd on batches of that size
    for experiment, raw, b in (("track", "none", 16), ("eos", "5", 5)):
        cfg = parse_config_text(f"experiment = {experiment}\noptim.batch_size = {raw}\n"
                                "dataset.n_train = 16\n")
        assert f"\noptim.batch_size = {raw}\n" in emit_config(cfg)
        ocfg = assemble_run(cfg, 0).ocfg
        assert ocfg.batch_size == b


def test_sweep_key_validation():
    with pytest.raises(ConfigError, match="^sweep.values: not valid for eos"):
        parse_config_text("experiment = eos\nsweep.values = 0.1\n")
    with pytest.raises(ConfigError, match=r"^sweep\.values: needs one or more values that "
                                          r"noise\.flip_fraction accepts \(a value in \[0, 1\]\)"):
        parse_config_text("experiment = sweep_noise\nsweep.values = 0.1,1.5\n")
    with pytest.raises(ConfigError, match=r"^sweep\.values: .* schedule\.eta0 accepts "
                                          r"\(> 0 and finite\), got \(0\.1, -0\.2\)$"):
        parse_config_text("experiment = sweep_lr\nsweep.values = 0.1,-0.2\n")
    with pytest.raises(ConfigError, match=r"^sweep\.values: .*, got None$"):
        parse_config_text("experiment = sweep_lr\nsweep.values = none\n")
    with pytest.raises(ConfigError, match="must be constant"):
        parse_config_text("experiment = sweep_lr\nschedule.kind = cosine\n")
    cfg = parse_config_text("experiment = sweep_lr\nsweep.values = 0.05,0.1\n")
    assert cfg.sweep_values == (0.05, 0.1)


def test_a_sweep_lr_rate_set_from_code_must_be_finite():
    # the file parser rejects inf; a grid set from code reaches only
    # validate_config, which holds its rates to schedule.eta0's range
    cfg = dataclasses.replace(default_config("sweep_lr"), sweep_values=(0.1, math.inf))
    with pytest.raises(ConfigError, match=r"^sweep\.values: .* schedule\.eta0 accepts"):
        validate_config(cfg)


@pytest.mark.parametrize("experiment, grid", [
    ("sweep_noise", (0.1, 0.2, 0.1)),
    ("sweep_noise", (0.0, -0.0)),  # equal values: one per_value entry
    ("sweep_lr", (0.5, 0.5)),
])
def test_a_repeated_sweep_value_is_rejected(experiment, grid):
    cfg = dataclasses.replace(default_config(experiment), sweep_values=grid)
    with pytest.raises(ConfigError, match=r"^sweep\.values: needs each value once, got "):
        validate_config(cfg)
    with pytest.raises(ConfigError, match=r"^sweep\.values: needs each value once"):
        parse_config_text(f"experiment = {experiment}\n"
                          f"sweep.values = {','.join(map(str, grid))}\n")


def test_every_config_field_is_set_by_exactly_one_key():
    # no field that no key sets, no key without its field, no field set twice
    attrs = [row.attr for row in _KEYS.values()]
    assert {f.name for f in dataclasses.fields(ExperimentConfig)} == set(attrs)
    assert len(set(attrs)) == len(attrs)


def test_toy_table_pins_the_inverse_time_schedule():
    with pytest.raises(ConfigError, match="inverse_time"):
        parse_config_text("experiment = toy_table\nschedule.kind = constant\n")


def test_toy_table_pins_the_linear_model():
    # the smooth bound needs the schedule's beta, fixed at w0, to be the
    # trajectory's smoothness: true only for a Hessian independent of w
    for extra in ("", "schedule.beta = 2.0\n"):
        with pytest.raises(ConfigError, match="model.kind: .*must be linear"):
            parse_config_text("experiment = toy_table\nmodel.kind = mlp\n" + extra)


def test_cross_field_validation_catches_out_of_range_values():
    base = default_config("track")
    cases = [
        dict(seeds=()),
        dict(n_train=1),
        dict(n_test=0),
        dict(dim=0),
        dict(flip_fraction=1.2),
        dict(hidden=()),
        dict(stop_train_loss=0.0),
        dict(snapshot_every=0),
        dict(eta0=0.0),
        dict(epochs=-1),
    ]
    for override in cases:
        with pytest.raises(ConfigError):
            validate_config(dataclasses.replace(base, **override))
    with pytest.raises(ConfigError, match="dataset.path"):
        validate_config(dataclasses.replace(base, dataset_kind="csv"))
    with pytest.raises(ConfigError, match="label_column"):
        validate_config(dataclasses.replace(base, dataset_kind="csv",
                                            csv_path="x.csv"))
    with pytest.raises(ConfigError, match="eta_min"):
        validate_config(dataclasses.replace(base, eta_min=0.2))  # above eta0
    with pytest.raises(ConfigError, match="schedule.c"):
        validate_config(dataclasses.replace(default_config("toy_table"), c=0.0))


@pytest.mark.parametrize("fields, key", [
    (dict(hidden=(0,)), "model.hidden"),
    (dict(hidden=(8, -3)), "model.hidden"),
    (dict(batch_size=101), "optim.batch_size"),  # the toy n_train is 100
], ids=["zero_width", "negative_width", "batch_above_n_train"])
def test_validation_names_an_out_of_range_width_or_batch_size(fields, key):
    with pytest.raises(ConfigError, match=rf"^{key}: needs"):
        validate_config(dataclasses.replace(default_config("track"), **fields))


def test_range_checks_accept_b_equal_n_unused_widths_and_csv_batch_sizes():
    track = default_config("track")
    validate_config(dataclasses.replace(track, batch_size=100))  # b = n is allowed
    # a linear model has no hidden layer, and a CSV dataset's n is known only
    # once it is loaded, so the runtime check guards it
    validate_config(dataclasses.replace(track, model_kind="linear", hidden=(0,)))
    validate_config(dataclasses.replace(track, dataset_kind="csv", csv_path="x.csv",
                                        label_column="y", batch_size=500))


# eos records exact one-step relative progress, so it takes exactly the
# configs whose snapshots come every step: the preset's cadence 1, or once
# per epoch where an epoch is one step (gd, or sgd with b = n); cmd_eos
# checks the cadence once the run, and so a CSV dataset's n, is assembled
@pytest.mark.parametrize("fields, every", [
    (dict(), None),
    (dict(snapshot_every=None), None),
    (dict(batch_size=100, snapshot_every=None), None),
    (dict(batch_size=4, snapshot_every=1), None),
    (dict(batch_size=4, snapshot_every=None, dataset_kind="csv", label_column="y",
          holdout_fraction=0.5), None),  # 4 of the CSV's 8 rows train: b = n
    (dict(snapshot_every=2), 2),
    (dict(batch_size=100, snapshot_every=3), 3),
    (dict(batch_size=10, snapshot_every=None), 10),
    (dict(batch_size=99, snapshot_every=None), 2),
], ids=["preset", "gd_epoch", "sgd_full_batch_epoch", "sgd_every_step",
        "csv_sgd_epoch", "gd_every_2", "sgd_full_batch_every_3", "sgd_epoch_of_10",
        "sgd_epoch_of_2"])
def test_eos_accepts_exactly_the_one_step_cadences(fields, every, tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("\n".join(["f1,y"] + [f"{i},{i % 2}" for i in range(8)]) + "\n")
    out = tmp_path / "out"
    cfg = dataclasses.replace(default_config("eos"), seeds=(0,), output_dir=str(out),
                              n_test=8, dim=3, epochs=None, max_steps=2,
                              csv_path=str(data), **fields)  # n_train = 100
    assert validate_config(cfg) is cfg
    if every is None:
        cmd_eos(cfg)
        assert (out / "eos.csv").exists()
    else:
        with pytest.raises(ConfigError, match=rf"^optim.snapshot_every: .*one every "
                                              rf"{every} steps"):
            cmd_eos(cfg)
        assert not out.exists()


def test_parse_config_reads_files_and_names_them(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("experiment = eos\nseeds = 9\n")
    cfg = parse_config(str(p))
    assert cfg.seeds == (9,)
    bad = tmp_path / "bad.cfg"
    bad.write_text("experiment = eos\nbogus = 1\n")
    with pytest.raises(ConfigError, match="bad.cfg:2"):
        parse_config(str(bad))


def test_parse_config_skips_a_utf8_byte_order_mark(tmp_path):
    # an editor's UTF-8 with signature starts the file with U+FEFF, which is
    # not part of the first key
    p = tmp_path / "bom.cfg"
    p.write_bytes("experiment = eos\nseeds = 9\n".encode("utf-8-sig"))
    assert parse_config(str(p)) == dataclasses.replace(default_config("eos"), seeds=(9,))


def test_parse_config_rejects_bytes_that_are_not_utf8(tmp_path):
    bad = tmp_path / "latin1.cfg"
    bad.write_bytes("experiment = eos\n# caf\u00e9\n".encode("latin-1"))
    with pytest.raises(ConfigError, match="latin1.cfg: not UTF-8"):
        parse_config(str(bad))


def test_shipped_config_files_parse(tmp_path):
    import glob
    import os

    paths = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..",
                                          "configs", "*.cfg")))
    assert len(paths) == 6
    seen = set()
    for path in paths:
        cfg = parse_config(path)
        seen.add(cfg.experiment)
        assert os.path.basename(path) == f"{cfg.experiment}.cfg"
        # each file is emit_config's own output, so a change to the key set
        # cannot leave stale or hand-edited configs behind
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == emit_config(cfg), path
    assert seen == set(EXPERIMENTS)
    # the comparison experiment ships with single-sample batches
    table = parse_config(os.path.join(os.path.dirname(__file__), "..",
                                      "configs", "toy_table.cfg"))
    assert table.batch_size == 1


def test_experiment_config_is_frozen():
    cfg = default_config("eos")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.eta0 = 0.5


@pytest.mark.parametrize("experiment, key, fields", [
    ("track", "optim.stop_train_loss", dict(stop_train_loss=float("nan"))),
    ("toy_table", "schedule.c", dict(c=float("nan"))),
    ("toy_table", "schedule.beta", dict(beta=float("nan"))),
    ("assumption", "schedule.eta0", dict(eta0=float("nan"))),
], ids=["stop_train_loss", "c", "beta", "eta0"])
def test_validation_rejects_nan_thresholds_and_rates_set_in_code(experiment, key, fields):
    # only the file parser rejects non-finite numbers; a NaN stop threshold
    # would turn early stopping off, since F_S < nan never holds
    with pytest.raises(ConfigError, match=rf"^{key}: needs > 0"):
        validate_config(dataclasses.replace(default_config(experiment), **fields))


@pytest.mark.parametrize("experiment, key, fields", [
    ("assumption", "schedule.eta0", dict(eta0=math.inf)),
    ("toy_table", "schedule.c", dict(c=math.inf)),
    ("toy_table", "schedule.beta", dict(beta=math.inf)),
], ids=["eta0", "c", "beta"])
def test_validation_rejects_infinite_rates_set_in_code(experiment, key, fields):
    # only the file parser rejects non-finite numbers; an infinite rate set
    # from code fails as the key's range error, not later in the run's
    # schedule with an error that names no key
    cfg = dataclasses.replace(default_config(experiment), **fields)
    with pytest.raises(ConfigError,
                       match=rf"^{key}: needs > 0 and finite( or auto)?, got inf$"):
        validate_config(cfg)


TINY = math.nextafter(0.0, 1.0)
MAX = sys.float_info.max
_TRACK = default_config("track")  # toy data, mlp, sgd, epochs, cosine schedule
_CSV = dataclasses.replace(_TRACK, dataset_kind="csv", csv_path="x.csv", label_column="y")

# key -> (a valid config in which the key applies, values just outside its
# range, boundary values inside it); eos trains on the full batch, so a
# small n_train keeps it valid
RANGE_CASES = {
    "seeds": (_TRACK, [(), (-1,), (3, -1), (0, 0), (0, 1, 0)], [(0,), (1, 0)]),
    "output_dir": (_TRACK, ["a\0b", ""], ["a b"]),
    "dataset.n_train": (default_config("eos"), [1], [2]),
    "dataset.n_test": (_TRACK, [0], [1]),
    "dataset.dim": (_TRACK, [0], [1]),
    "dataset.path": (_CSV, ["x\0.csv"], ["x y.csv"]),
    "dataset.holdout_fraction": (_CSV, [0.0, 1.0], [TINY, math.nextafter(1.0, 0.0)]),
    "noise.flip_fraction": (_TRACK, [-TINY, math.nextafter(1.0, 2.0)], [0.0, 1.0]),
    "model.hidden": (_TRACK, [(), (0,), (8, -3)], [(1,), (1, 1)]),
    "optim.batch_size": (_TRACK, [0, -1], [1, 100]),
    "optim.epochs": (_TRACK, [-1], [0]),
    "optim.max_steps": (default_config("assumption"), [-1], [0]),
    "optim.stop_train_loss": (_TRACK, [0.0, -TINY], [TINY]),
    "optim.snapshot_every": (_TRACK, [0], [1]),
    "schedule.eta0": (_TRACK, [0.0, math.inf], [TINY, MAX]),
    "schedule.c": (default_config("toy_table"), [0.0, math.inf], [TINY, MAX]),
    "schedule.beta": (default_config("toy_table"), [0.0, math.inf], [TINY, MAX]),
    "schedule.eta_min": (_TRACK, [-TINY], [0.0]),
    "schedule.t_max": (_TRACK, [0], [1]),
}


def test_every_ranged_key_has_a_range_case():
    assert set(RANGE_CASES) == {key for key, row in _KEYS.items() if row.needs}


def _needs_error(cfg, key):
    """Whether validate_config rejects cfg for key's range."""
    try:
        validate_config(cfg)
    except ConfigError as exc:
        return str(exc).startswith(f"{key}: needs ")
    return False


@pytest.mark.parametrize("key", RANGE_CASES)
def test_each_key_checks_its_range_where_it_applies(key):
    base, outside, boundary = RANGE_CASES[key]
    row = _KEYS[key]
    assert validate_config(base) is base
    if row.parse is _parse_float:
        outside = [*outside, float("nan")]
    for value in outside:
        with pytest.raises(ConfigError, match=rf"^{key}: needs .*, got "):
            validate_config(dataclasses.replace(base, **{row.attr: value}))
    for value in boundary:
        cfg = dataclasses.replace(base, **{row.attr: value})
        assert validate_config(cfg) is cfg
    # None is the sentinel's value: it passes the range exactly where the
    # row has a sentinel, and the message then offers the sentinel
    assert _needs_error(dataclasses.replace(base, **{row.attr: None}), key) != bool(row.none)
    if row.none:
        with pytest.raises(ConfigError, match=rf" or {row.none[0]}, got "):
            validate_config(dataclasses.replace(base, **{row.attr: outside[0]}))


@pytest.mark.parametrize("experiment, fields", [
    ("assumption", dict(c=-1.0, beta=-1.0, eta_min=-1.0, t_max=0)),  # constant schedule
    ("toy_table", dict(eta0=-1.0, hidden=(0,))),  # inverse-time schedule, linear model
    ("track", dict(dataset_kind="csv", csv_path="x.csv", label_column="y",
                   n_train=0, n_test=0, dim=0)),
    ("track", dict(holdout_fraction=2.0)),  # toy data
    ("sweep_noise", dict(flip_fraction=2.0)),  # each cell sets its own
    ("sweep_lr", dict(eta0=0.0)),  # each cell sets its own
], ids=["constant_schedule", "toy_table", "csv_dataset", "toy_dataset", "sweep_noise",
        "sweep_lr"])
def test_keys_outside_the_config_shape_are_not_range_checked(experiment, fields):
    cfg = dataclasses.replace(default_config(experiment), **fields)
    assert validate_config(cfg) is cfg
