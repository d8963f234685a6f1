"""Config parsing, validation, and the emit/parse round trip."""

import dataclasses

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trajbound.config import (
    EXPERIMENTS,
    ExperimentConfig,
    default_config,
    emit_config,
    parse_config,
    parse_config_text,
    validate_config,
)
from trajbound.errors import ConfigError


def test_minimal_config_fills_experiment_defaults():
    cfg = parse_config_text("experiment = toy_table\n")
    assert cfg.experiment == "toy_table"
    assert cfg.dim == 20
    assert cfg.batch_size == 10
    assert cfg.k_samples == 1024
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
        n_sp=16, subset_mode="size_uniform", output_dir="elsewhere",
    )
    assert parse_config_text(emit_config(cfg)) == cfg


positive = st.floats(min_value=1e-6, max_value=10.0)


@st.composite
def drawn_configs(draw):
    """A preset with drawn seeds, sizes, batch size, schedule and estimator.

    Only fields that the drawn shape emits are drawn: emit_config leaves the
    rest out, so parsing refills them from the preset.
    """
    cfg = default_config(draw(st.sampled_from(EXPERIMENTS)))
    horizon = draw(st.integers(0, 10_000))
    by_epochs = draw(st.booleans())
    fields = dict(
        seeds=tuple(draw(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=4))),
        n_train=draw(st.integers(2, 500)), n_test=draw(st.integers(1, 5000)),
        dim=draw(st.integers(1, 64)),
        epochs=horizon if by_epochs else None, max_steps=None if by_epochs else horizon,
        stop_train_loss=draw(st.none() | positive),
        snapshot_every=draw(st.none() | st.integers(1, 100)),
        sampling=draw(st.sampled_from(("iid", "permute"))),
        k_samples=draw(st.integers(1, 4096)), n_sp=draw(st.none() | st.integers(1, 500)),
        subset_mode=draw(st.sampled_from(("rademacher", "size_uniform"))),
    )
    if cfg.mode == "sgd":
        fields["batch_size"] = draw(st.integers(1, 200))
    kind = draw(st.sampled_from(("constant", "inverse_time", "cosine")))
    fields["schedule_kind"] = kind
    if kind == "inverse_time":
        fields.update(c=draw(positive), beta=draw(st.none() | positive))
    else:
        fields["eta0"] = eta0 = draw(positive)
        if kind == "cosine":
            fields.update(eta_min=eta0 * draw(st.floats(0.0, 1.0)),
                          t_max=draw(st.none() | st.integers(1, 10_000)))
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
    assert "model.activation" not in text
    assert "schedule.eta0" not in text  # inverse_time ignores eta0
    assert "schedule.beta = auto" in text
    assert "sweep.param" not in text
    assert "optim.batch_size = 10" in text

    gd_text = emit_config(default_config("assumption"))
    assert "optim.batch_size" not in gd_text
    assert "optim.max_steps = 800" in gd_text
    assert "optim.epochs" not in gd_text

    cosine_text = emit_config(default_config("track"))
    assert "schedule.t_max = auto" in cosine_text
    assert "schedule.c" not in cosine_text


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


def test_comments_and_blank_lines_are_ignored():
    cfg = parse_config_text(
        "# a comment\n"
        "\n"
        "experiment = eos\n"
        "   # indented comment\n"
        "seeds = 4\n"
    )
    assert cfg.seeds == (4,)


def test_unknown_key_names_key_and_line():
    with pytest.raises(ConfigError, match=r"<config>:3: unknown key 'optim.lr'"):
        parse_config_text("experiment = eos\n\noptim.lr = 0.1\n")


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
        parse_config_text("experiment = eos\noptim.mode = adam\n")


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


def test_gd_rejects_batch_size_and_sgd_requires_it():
    with pytest.raises(ConfigError, match="optim.batch_size"):
        parse_config_text(
            "experiment = eos\noptim.mode = gd\noptim.batch_size = 5\n"
        )
    with pytest.raises(ConfigError, match="optim.batch_size"):
        parse_config_text(
            "experiment = track\noptim.batch_size = none\n"
        )


def test_sweep_key_validation():
    with pytest.raises(ConfigError, match="sweep keys are not valid"):
        parse_config_text("experiment = eos\nsweep.param = lr\nsweep.values = 0.1\n")
    with pytest.raises(ConfigError, match="requires 'noise'"):
        parse_config_text("experiment = sweep_noise\nsweep.param = lr\n")
    with pytest.raises(ConfigError, match="must lie in"):
        parse_config_text("experiment = sweep_noise\nsweep.values = 0.1,1.5\n")
    with pytest.raises(ConfigError, match="must be positive"):
        parse_config_text("experiment = sweep_lr\nsweep.values = 0.1,-0.2\n")
    with pytest.raises(ConfigError, match="must be constant"):
        parse_config_text("experiment = sweep_lr\nschedule.kind = cosine\n")
    cfg = parse_config_text("experiment = sweep_lr\nsweep.values = 0.05,0.1\n")
    assert cfg.sweep_values == (0.05, 0.1)


def test_toy_table_pins_the_inverse_time_schedule():
    with pytest.raises(ConfigError, match="inverse_time"):
        parse_config_text("experiment = toy_table\nschedule.kind = constant\n")


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
        dict(k_samples=0),
        dict(n_sp=0),
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


def test_parse_config_reads_files_and_names_them(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("experiment = eos\nseeds = 9\n")
    cfg = parse_config(str(p))
    assert cfg.seeds == (9,)
    bad = tmp_path / "bad.cfg"
    bad.write_text("experiment = eos\nbogus = 1\n")
    with pytest.raises(ConfigError, match="bad.cfg:2"):
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
    assert seen == set(EXPERIMENTS)
    # the comparison experiment ships with single-sample batches
    table = parse_config(os.path.join(os.path.dirname(__file__), "..",
                                      "configs", "toy_table.cfg"))
    assert table.batch_size == 1


def test_experiment_config_is_frozen():
    cfg = default_config("eos")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.eta0 = 0.5
