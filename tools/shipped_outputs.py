"""Run every shipped config, or compare two such output trees byte for byte.

    python3 tools/shipped_outputs.py DIR
    python3 tools/shipped_outputs.py DIR --against OLD [--rel TOL]

The first form runs each configs/*.cfg through `python -m trajbound.cli`
with this checkout's src/ and OPENBLAS_NUM_THREADS=1, writing the outputs
of experiment E under DIR/E/; it stops at the first command that fails,
with that command's exit code. Each command gets --plots, so it writes
its SVG plots too. The second form runs nothing: it compares every CSV
file, SVG file and meta.json under DIR with the one at the same relative
path under OLD, names each file that differs or exists on one side only,
and exits 1 if there is any such file or no CSV file at all. CSV and SVG
files must match byte for byte; a meta.json too, apart from the
output_dir line of the config it echoes, which names each tree's own
directory. Under each meta.json that differs it prints the config lines
found only in OLD (`- key = value`) or only in DIR (`+ key = value`), and
each other top-level field that differs, as `- name: value` from OLD and
`+ name: value` from DIR. To check that a change keeps every shipped
output, run the first form at the parent commit into OLD and at the change
into DIR, then the second.

With --rel TOL the CSV files are compared by value instead: each pair must
have the same header and the same number of rows, and for each column the
tool prints the largest relative difference |a - b| / max(|a|, |b|) over
its cells (0 for equal values, NaN included, and inf for differing cells
that are not both numbers), then exits 1 if any column's is above TOL. This
checks a change that moves outputs at roundoff, where bytes must differ.
SVG files are still compared byte for byte.
Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _experiment(cfg: Path) -> str:
    for line in cfg.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition("=")
        if sep and key.strip() == "experiment":
            return value.strip()
    raise SystemExit(f"{cfg}: no experiment key")


def run(out: Path) -> int:
    """Run each shipped config into out/<experiment>/; the first failing exit code."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for cfg in sorted((ROOT / "configs").glob("*.cfg")):
        name = _experiment(cfg)
        cmd = [sys.executable, "-m", "trajbound.cli", name, "--config", str(cfg),
               "--out", str(out / name), "--plots"]
        code = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL).returncode
        if code:
            print(f"{cfg.name}: exit {code}", file=sys.stderr)
            return code
    return 0


# the echoed `output_dir = ...` line inside meta.json's JSON-escaped config
# text, up to the escaped newline that ends it
_OUTPUT_DIR = re.compile(rb'(?<=\\n)output_dir = (?:[^"\\]|\\[^n])*\\n')


def _compared_bytes(path: Path) -> bytes:
    data = path.read_bytes()
    return _OUTPUT_DIR.sub(b"", data, count=1) if path.name == "meta.json" else data


def _outputs(tree: Path) -> set[str]:
    return {p.relative_to(tree).as_posix() for pattern in ("*.csv", "*.svg", "meta.json")
            for p in tree.rglob(pattern)}


def compare(new: Path, old: Path, tol: float | None = None) -> tuple[list[str], list[str]]:
    """(problems, report): a line per output file that differs or exists under one tree only.

    With tol the CSV files are compared by value: the report holds each
    column's largest relative difference, and each column above tol is a
    problem.
    """
    new_files, old_files = _outputs(new), _outputs(old)
    if not any(rel.endswith(".csv") for rel in new_files | old_files):
        return [f"no CSV files under {new} or {old}"], []
    problems, report = [], []
    for rel in sorted(new_files | old_files):
        if rel not in new_files:
            problems.append(f"missing from {new}: {rel}")
        elif rel not in old_files:
            problems.append(f"missing from {old}: {rel}")
        elif tol is not None and rel.endswith(".csv"):
            columns = _column_differences(new / rel, old / rel)
            if isinstance(columns, str):
                problems.append(f"{columns}: {rel}")
                continue
            for column, diff in columns:
                line = f"{rel} {column}: {diff:.3g}"
                report.append(line)
                if not diff <= tol:
                    problems.append(f"above {tol:g}: {line}")
        elif _compared_bytes(new / rel) != _compared_bytes(old / rel):
            problems.append(f"differs: {rel}")
            if rel.endswith("meta.json"):
                problems += _meta_changes(new / rel, old / rel)
    return problems, report


def _meta_changes(new: Path, old: Path) -> list[str]:
    """The config lines, output_dir's apart, and other fields that differ, OLD's first."""
    docs = [json.loads(path.read_text(encoding="utf-8")) for path in (old, new)]
    lines = [[line for line in doc.get("config", "").splitlines()
              if not line.startswith("output_dir = ")] for doc in docs]
    changes = [f"  - {line}" for line in lines[0] if line not in lines[1]]
    changes += [f"  + {line}" for line in lines[1] if line not in lines[0]]
    for name in sorted((docs[0].keys() | docs[1].keys()) - {"config"}):
        if docs[0].get(name, ...) != docs[1].get(name, ...):
            changes += [f"  {sign} {name}: {json.dumps(doc[name])}"
                        for sign, doc in zip("-+", docs) if name in doc]
    return changes


def _column_differences(new: Path, old: Path) -> list[tuple[str, float]] | str:
    """Each column's largest relative difference, or why the two tables do not match."""
    tables = []
    for path in (new, old):
        with open(path, newline="", encoding="utf-8") as f:
            tables.append(list(csv.reader(f)))
    (header, *rows), (old_header, *old_rows) = (t or [[]] for t in tables)
    if header != old_header:
        return "columns differ"
    if len(rows) != len(old_rows) or any(len(r) != len(header) for r in rows + old_rows):
        return "rows differ"
    return [(name, max((_relative(row[i], old_row[i]) for row, old_row in zip(rows, old_rows)),
                       default=0.0))
            for i, name in enumerate(header)]


def _relative(a: str, b: str) -> float:
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    diff = abs(x - y) / max(abs(x), abs(y))
    return math.inf if math.isnan(diff) else diff


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir", type=Path, help="output tree to write, or to compare")
    parser.add_argument("--against", type=Path, metavar="OLD",
                        help="compare DIR's CSV, SVG and meta.json files with OLD's "
                             "instead of running")
    parser.add_argument("--rel", type=float, metavar="TOL",
                        help="with --against, compare the CSV files by value and "
                             "allow each cell a relative difference up to TOL")
    args = parser.parse_args(argv)
    if args.against is None:
        if args.rel is not None:
            parser.error("--rel needs --against")
        return run(args.dir)
    problems, report = compare(args.dir, args.against, args.rel)
    for line in report + problems:
        print(line)
    if problems:
        return 1
    files = _outputs(args.dir)
    csv_files = sum(rel.endswith(".csv") for rel in files)
    svg_files = sum(rel.endswith(".svg") for rel in files)
    within = "" if args.rel is None else f" within relative {args.rel:g}"
    print(f"{csv_files} CSV files{within}, {svg_files} SVG files and "
          f"{len(files) - csv_files - svg_files} meta.json files identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
