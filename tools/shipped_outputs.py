"""Run every shipped config, or compare two such output trees byte for byte.

    python3 tools/shipped_outputs.py DIR
    python3 tools/shipped_outputs.py DIR --against OLD

The first form runs each configs/*.cfg through `python -m trajbound.cli`
with this checkout's src/ and OPENBLAS_NUM_THREADS=1, writing the outputs
of experiment E under DIR/E/; it stops at the first command that fails,
with that command's exit code. The second form runs nothing: it compares
every CSV file and every meta.json under DIR with the one at the same
relative path under OLD, names each file that differs or exists on one
side only, and exits 1 if there is any such file or no CSV file at all.
CSV files must match byte for byte; a meta.json too, apart from the
output_dir line of the config it echoes, which names each tree's own
directory. To check that a change keeps every shipped output, run the
first form at the parent commit into OLD and at the change into DIR, then
the second. Standard library only.
"""

from __future__ import annotations

import argparse
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
               "--out", str(out / name)]
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
    return {p.relative_to(tree).as_posix() for pattern in ("*.csv", "meta.json")
            for p in tree.rglob(pattern)}


def compare(new: Path, old: Path) -> list[str]:
    """One line per CSV file or meta.json that differs or exists under only one tree."""
    new_files, old_files = _outputs(new), _outputs(old)
    if not any(rel.endswith(".csv") for rel in new_files | old_files):
        return [f"no CSV files under {new} or {old}"]
    problems = []
    for rel in sorted(new_files | old_files):
        if rel not in new_files:
            problems.append(f"missing from {new}: {rel}")
        elif rel not in old_files:
            problems.append(f"missing from {old}: {rel}")
        elif _compared_bytes(new / rel) != _compared_bytes(old / rel):
            problems.append(f"differs: {rel}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir", type=Path, help="output tree to write, or to compare")
    parser.add_argument("--against", type=Path, metavar="OLD",
                        help="compare DIR's CSV and meta.json files with OLD's "
                             "instead of running")
    args = parser.parse_args(argv)
    if args.against is None:
        return run(args.dir)
    problems = compare(args.dir, args.against)
    for line in problems:
        print(line)
    if problems:
        return 1
    files = _outputs(args.dir)
    csv = sum(rel.endswith(".csv") for rel in files)
    print(f"{csv} CSV files and {len(files) - csv} meta.json files identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
