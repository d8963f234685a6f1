"""The repository's helper scripts."""

import dataclasses
import importlib.util
import json
import os
import re
import subprocess
import sys

import pytest

from trajbound.config import default_config, emit_config

ROOT = os.path.join(os.path.dirname(__file__), "..")


def test_src_lines_prints_both_counts():
    out = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "src_lines.py")],
                         capture_output=True, text=True, check=True).stdout
    lines = re.fullmatch(r"src/ lines: (\d+)\n"
                         r"code lines \(no docstrings, comments or blank lines\): (\d+)\n"
                         r"((?:\S+\.py: \d+ lines, \d+ code lines\n)+)",
                         out)
    assert lines is not None, out
    total, code = int(lines[1]), int(lines[2])
    assert 0 < code < total
    modules = re.findall(r"(\S+\.py): (\d+) lines, (\d+) code lines", lines[3])
    assert "trajbound/optim.py" in [name for name, _, _ in modules]
    assert sum(int(m_total) for _, m_total, _ in modules) == total
    assert sum(int(m_code) for _, _, m_code in modules) == code


def _shipped_outputs(*args):
    return subprocess.run([sys.executable, os.path.join(ROOT, "tools", "shipped_outputs.py"),
                           *map(str, args)], capture_output=True, text=True)


def test_shipped_outputs_compares_every_csv_byte_for_byte(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    for tree in (old, new):
        (tree / "toy_table").mkdir(parents=True)
        (tree / "toy_table" / "bounds.csv").write_bytes(b"seed,value\n0,0.25\n")
        (tree / "eos" / "eos.csv").parent.mkdir()
        (tree / "eos" / "eos.csv").write_bytes(b"t,eig\n0,1.5\n")
        _write_meta(tree / "eos", default_config("eos"))
    same = _shipped_outputs(new, "--against", old)
    assert same.returncode == 0, same.stdout
    assert same.stdout == "2 CSV files, 0 SVG files and 1 meta.json files identical\n"

    (new / "eos" / "eos.csv").write_bytes(b"t,eig\n0,1.6\n")
    changed = _shipped_outputs(new, "--against", old)
    assert changed.returncode == 1
    assert changed.stdout == "differs: eos/eos.csv\n"

    (new / "eos" / "eos.csv").write_bytes(b"t,eig\n0,1.5\n")
    (new / "toy_table" / "bounds.csv").unlink()
    missing = _shipped_outputs(new, "--against", old)
    assert missing.returncode == 1
    assert missing.stdout == f"missing from {new}: toy_table/bounds.csv\n"

    empty = _shipped_outputs(tmp_path / "a", "--against", tmp_path / "b")
    assert empty.returncode == 1


def test_shipped_outputs_compares_every_svg_byte_for_byte(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    for tree in (old, new):
        (tree / "eos").mkdir(parents=True)
        (tree / "eos" / "eos.csv").write_bytes(b"t,eig\n0,1.5\n")
        (tree / "eos" / "eos_rp.svg").write_bytes(b"<svg>\n</svg>\n")
        _write_meta(tree / "eos", default_config("eos"))
    same = _shipped_outputs(new, "--against", old)
    assert same.returncode == 0, same.stdout
    assert same.stdout == "1 CSV files, 1 SVG files and 1 meta.json files identical\n"
    within = _shipped_outputs(new, "--against", old, "--rel", "1e-12")
    assert within.stdout.splitlines()[-1] == (
        "1 CSV files within relative 1e-12, 1 SVG files and 1 meta.json files identical")

    (new / "eos" / "eos_rp.svg").write_bytes(b"<svg>\n</svg>")
    for args in ((), ("--rel", "1e-12")):
        changed = _shipped_outputs(new, "--against", old, *args)
        assert changed.returncode == 1
        assert changed.stdout.splitlines()[-1] == "differs: eos/eos_rp.svg"

    (new / "eos" / "eos_rp.svg").unlink()
    missing = _shipped_outputs(new, "--against", old)
    assert missing.returncode == 1
    assert missing.stdout == f"missing from {new}: eos/eos_rp.svg\n"


def _write_meta(out, cfg, **extra):
    # the meta.json of experiments._write_outputs: the config echo names out itself
    cfg = dataclasses.replace(cfg, output_dir=str(out))
    meta = {"experiment": cfg.experiment, "seeds": list(cfg.seeds),
            "config": emit_config(cfg), **extra}
    (out / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def test_shipped_outputs_compares_meta_json_apart_from_its_output_dir(tmp_path):
    old, new = tmp_path / "old", tmp_path / 'new "quoted\\n" caf\u00e9'
    cfg = default_config("track")
    for tree in (old, new):
        (tree / "track").mkdir(parents=True)
        (tree / "track" / "track.csv").write_bytes(b"t,F\n0,0.5\n")
        _write_meta(tree / "track", cfg, diverged_at=None)
    assert '\\"quoted' in (new / "track" / "meta.json").read_text()
    same = _shipped_outputs(new, "--against", old)
    assert same.returncode == 0, same.stdout
    assert same.stdout == "1 CSV files, 0 SVG files and 1 meta.json files identical\n"

    # under the file: its config lines only in OLD (-) or only in DIR (+),
    # then each other top-level field that differs, as it is on each side
    for changed, extra, lines in (
            (dataclasses.replace(cfg, eta0=0.06), {},
             ["- schedule.eta0 = 0.05", "+ schedule.eta0 = 0.06"]),
            (dataclasses.replace(cfg, seeds=(1,)), {},
             ["- seeds = 0", "+ seeds = 1", "- seeds: [0]", "+ seeds: [1]"]),
            (cfg, dict(diverged_at=7), ["- diverged_at: null", "+ diverged_at: 7"]),
            (cfg, dict(grid=[0.5]), ["+ grid: [0.5]"]),
            (dataclasses.replace(cfg, model_kind="linear"), {},
             ["- model.kind = mlp", "- model.hidden = 8", "+ model.kind = linear"])):
        _write_meta(new / "track", changed, **dict(dict(diverged_at=None), **extra))
        differs = _shipped_outputs(new, "--against", old)
        assert differs.returncode == 1
        assert differs.stdout.splitlines() == (["differs: track/meta.json"]
                                               + [f"  {line}" for line in lines])

    (new / "track" / "meta.json").unlink()
    missing = _shipped_outputs(new, "--against", old)
    assert missing.returncode == 1
    assert missing.stdout == f"missing from {new}: track/meta.json\n"


def test_shipped_outputs_compares_csv_values_within_a_relative_tolerance(tmp_path):
    # --rel compares each CSV by value: every column's largest relative
    # difference is printed, and one above TOL, a changed header or row
    # count, or differing text fails; meta.json is still compared by bytes
    old, new = tmp_path / "old", tmp_path / "new"
    for tree, value, tag in ((old, "0.25", "a"), (new, "0.25000000000001", "a")):
        (tree / "toy_table").mkdir(parents=True)
        (tree / "toy_table" / "bounds.csv").write_text(
            f"seed,value,gap,tag\n0,{value},nan,{tag}\n1,-2.0,0.0,b\n")
        _write_meta(tree / "toy_table", default_config("toy_table"))
    close = _shipped_outputs(new, "--against", old, "--rel", "1e-12")
    assert close.returncode == 0, close.stdout
    assert close.stdout.splitlines() == [
        "toy_table/bounds.csv seed: 0",
        "toy_table/bounds.csv value: 4e-14",
        "toy_table/bounds.csv gap: 0",
        "toy_table/bounds.csv tag: 0",
        "1 CSV files within relative 1e-12, 0 SVG files and 1 meta.json files identical",
    ]
    assert _shipped_outputs(new, "--against", old).stdout == "differs: toy_table/bounds.csv\n"

    tight = _shipped_outputs(new, "--against", old, "--rel", "1e-14")
    assert tight.returncode == 1
    assert tight.stdout.splitlines()[-1] == "above 1e-14: toy_table/bounds.csv value: 4e-14"

    table = new / "toy_table" / "bounds.csv"
    for text, problem in (("seed,value,gap,tag\n0,0.25,nan,a\n1,-2.0,0.0,c\n",
                           "above 1e-12: toy_table/bounds.csv tag: inf"),
                          ("seed,value,gap,tag\n0,0.25,1.0,a\n1,-2.0,0.0,b\n",
                           "above 1e-12: toy_table/bounds.csv gap: inf"),
                          ("seed,value,gap\n0,0.25,nan\n1,-2.0,0.0\n",
                           "columns differ: toy_table/bounds.csv"),
                          ("seed,value,gap,tag\n0,0.25,nan,a\n",
                           "rows differ: toy_table/bounds.csv")):
        table.write_text(text)
        done = _shipped_outputs(new, "--against", old, "--rel", "1e-12")
        assert done.returncode == 1 and done.stdout.splitlines()[-1] == problem

    table.write_text("seed,value,gap,tag\n0,0.25,nan,a\n1,-2.0,0.0,b\n")
    _write_meta(new / "toy_table", default_config("toy_table"), grid=[0.5])
    meta = _shipped_outputs(new, "--against", old, "--rel", "1e-12")
    assert meta.returncode == 1 and meta.stdout.splitlines()[-2:] == [
        "differs: toy_table/meta.json", "  + grid: [0.5]"]

    assert _shipped_outputs(new, "--rel", "1e-12").returncode == 2


def test_shipped_outputs_runs_each_config_into_its_experiment(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "shipped_outputs", os.path.join(ROOT, "tools", "shipped_outputs.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    calls = []
    codes = {}

    def fake_run(cmd, env, stdout):
        calls.append((cmd, env["OPENBLAS_NUM_THREADS"]))
        return subprocess.CompletedProcess(cmd, codes.get(len(calls), 0))

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    assert tool.main([str(tmp_path)]) == 0
    names = sorted(f[:-4] for f in os.listdir(os.path.join(ROOT, "configs"))
                   if f.endswith(".cfg"))
    assert [cmd[3] for cmd, _ in calls] == names
    for cmd, threads in calls:
        assert cmd[1:3] == ["-m", "trajbound.cli"] and threads == "1"
        assert cmd[-3:] == ["--out", str(tmp_path / cmd[3]), "--plots"]

    calls.clear()
    codes[2] = 3  # the second command diverges: the run stops with its code
    assert tool.main([str(tmp_path)]) == 3
    assert len(calls) == 2


def _ab_time(*args):
    return subprocess.run([sys.executable, os.path.join(ROOT, "tools", "ab_time.py"),
                           *map(str, args)], capture_output=True, text=True)


def test_ab_time_alternates_fresh_processes_over_two_sources(tmp_path):
    # both sides the same src/, on toy_table cut to 2 epochs: 2 pairs of
    # processes, the first side alternating, then the medians and their ratio
    shipped = open(os.path.join(ROOT, "configs", "toy_table.cfg"), encoding="utf-8").read()
    config = tmp_path / "toy.cfg"
    config.write_text(re.sub(r"optim\.epochs = \d+", "optim.epochs = 2", shipped))
    src = os.path.join(ROOT, "src")
    done = _ab_time(src, src, config, "--pairs", 2, "--repeats", 1)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    seconds = r"(\d+\.\d{4}) s"
    for pair, first in ((1, "old"), (2, "new")):
        assert re.fullmatch(rf"pair {pair}: old {seconds}, new {seconds} \({first} first\)",
                            lines[pair - 1]), lines
    for side, line in zip(("old", "new"), lines[2:4]):
        stats = re.fullmatch(rf"{side} median {seconds}, quartiles {seconds} and {seconds}",
                             line)
        assert stats, lines
        low, median, high = (float(stats[i]) for i in (2, 1, 3))
        assert 0 < low <= median <= high < 60
    counts = re.fullmatch(r"new / old \d+\.\d{3}; new faster in (\d), slower in (\d), "
                          r"tied in (\d) of 2 pairs", lines[4])
    assert counts and sum(map(int, counts.groups())) == 2
    assert re.fullmatch(rf"claim rule (met|not met): new faster in {counts[1]} of 2 pairs "
                        r"\(at least 9/10 needed\), median gap -?\d+\.\d{4} s \(above the "
                        rf"old interquartile range {seconds} needed\)", lines[5]), lines
    assert len(lines) == 6


def ab_time_summary(tmp_path, monkeypatch, capsys, old, new):
    """The summary lines ab_time prints after pairs timed old[j], new[j]."""
    spec = importlib.util.spec_from_file_location(
        "ab_time", os.path.join(ROOT, "tools", "ab_time.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    times = {"old": iter(old), "new": iter(new)}
    for side in times:
        (tmp_path / side / "trajbound").mkdir(parents=True, exist_ok=True)
        (tmp_path / side / "trajbound" / "__init__.py").write_text("")
    monkeypatch.setattr(tool, "time_once", lambda src, config, repeats: next(times[src.name]))
    assert tool.main([str(tmp_path / "old"), str(tmp_path / "new"), "toy_table",
                      "--pairs", str(len(old))]) == 0
    return capsys.readouterr().out.splitlines()[len(old):]


def test_ab_time_reports_quartiles_and_counts_ties_for_neither_side(tmp_path, monkeypatch,
                                                                     capsys):
    # per pair, old then new: new wins two, loses one and ties two
    assert ab_time_summary(tmp_path, monkeypatch, capsys, [0.30, 0.24, 0.20, 0.26, 0.21],
                           [0.20, 0.22, 0.20, 0.28, 0.21]) == [
        "old median 0.2400 s, quartiles 0.2100 s and 0.2600 s",
        "new median 0.2100 s, quartiles 0.2000 s and 0.2200 s",
        "new / old 0.875; new faster in 2, slower in 1, tied in 2 of 5 pairs",
        "claim rule not met: new faster in 2 of 5 pairs (at least 9/10 needed), "
        "median gap 0.0300 s (above the old interquartile range 0.0500 s needed)",
    ]


# old times whose median is 0.2200 s and interquartile range 0.0200 s
AB_OLD = [0.200, 0.220, 0.240, 0.210, 0.230, 0.200, 0.240, 0.220, 0.210, 0.230]


@pytest.mark.parametrize("new, verdict", [
    # 10 of 10 won, by a median gap of 0.0400 s
    ([0.180] * 10, "met: new faster in 10 of 10 pairs"),
    # 9 of 10 won, the tenth tied
    ([0.180] * 9 + AB_OLD[9:], "met: new faster in 9 of 10 pairs"),
    # 8 of 10 won
    ([0.180] * 8 + [0.300] * 2, "not met: new faster in 8 of 10 pairs"),
    # 10 of 10 won, by a median gap of 0.0010 s, inside the old range
    ([t - 0.001 for t in AB_OLD], "not met: new faster in 10 of 10 pairs"),
])
def test_ab_time_says_whether_the_pairs_meet_the_claim_rule(tmp_path, monkeypatch, capsys,
                                                           new, verdict):
    last = ab_time_summary(tmp_path, monkeypatch, capsys, AB_OLD, new)[-1]
    assert last.startswith(f"claim rule {verdict} (at least 9/10 needed), median gap ")
    assert last.endswith("(above the old interquartile range 0.0200 s needed)")


def test_ab_time_rejects_a_missing_source(tmp_path):
    src = os.path.join(ROOT, "src")
    done = _ab_time(src, tmp_path / "nowhere", "toy_table", "--pairs", 1)
    assert done.returncode == 2 and done.stdout == ""
    assert f"no trajbound package under {tmp_path / 'nowhere'}" in done.stderr
    assert _ab_time(src, src, tmp_path / "missing.cfg").returncode == 2
