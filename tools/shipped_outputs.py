"""Run every shipped config, or compare two such output trees byte for byte.

    python3 tools/shipped_outputs.py DIR
    python3 tools/shipped_outputs.py DIR --against OLD

The first form runs each configs/*.cfg through `python -m trajbound.cli`
with this checkout's src/ and OPENBLAS_NUM_THREADS=1, writing the outputs
of experiment E under DIR/E/; it stops at the first command that fails,
with that command's exit code. The second form runs nothing: it compares
every CSV file under DIR with the one at the same relative path under OLD,
names each file that differs or exists on one side only, and exits 1 if
there is any such file or no CSV file at all. To check that a change keeps
every shipped output, run the first form at the parent commit into OLD and
at the change into DIR, then the second. Standard library only.
"""

from __future__ import annotations

import argparse
import filecmp
import os
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


def compare(new: Path, old: Path) -> list[str]:
    """One line per CSV file that differs or exists under only one tree."""
    new_csv = {p.relative_to(new).as_posix() for p in new.rglob("*.csv")}
    old_csv = {p.relative_to(old).as_posix() for p in old.rglob("*.csv")}
    if not new_csv | old_csv:
        return [f"no CSV files under {new} or {old}"]
    problems = []
    for rel in sorted(new_csv | old_csv):
        if rel not in new_csv:
            problems.append(f"missing from {new}: {rel}")
        elif rel not in old_csv:
            problems.append(f"missing from {old}: {rel}")
        elif not filecmp.cmp(new / rel, old / rel, shallow=False):
            problems.append(f"differs: {rel}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir", type=Path, help="output tree to write, or to compare")
    parser.add_argument("--against", type=Path, metavar="OLD",
                        help="compare DIR's CSV files with OLD's instead of running")
    args = parser.parse_args(argv)
    if args.against is None:
        return run(args.dir)
    problems = compare(args.dir, args.against)
    for line in problems:
        print(line)
    if problems:
        return 1
    count = sum(1 for _ in args.dir.rglob("*.csv"))
    print(f"{count} CSV files identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
