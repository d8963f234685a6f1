"""Time one experiment under two source trees, in alternating fresh processes.

    python3 tools/ab_time.py OLD_SRC NEW_SRC EXPERIMENT [--pairs N] [--repeats M]

OLD_SRC and NEW_SRC are src/ directories holding a trajbound package (a
second checkout's src/, say). EXPERIMENT is a config file, or the name of a
shipped one (configs/EXPERIMENT.cfg). Each pair starts one fresh
interpreter per side with OPENBLAS_NUM_THREADS=1, and which side runs first
alternates from pair to pair. Each process imports trajbound from its own
src, runs the experiment command once to warm up, then times M more calls
and reports the fastest; the outputs go to a temporary directory. The tool
prints each pair, each side's median and quartiles over the pairs, the
ratio of the medians (new / old) and the number of pairs the new side won,
lost and tied (equal times, which count for neither side). Its last line
says whether the pairs meet the claim rule for a speedup: the new side
faster in at least 9 of every 10 pairs, and the old median minus the new
one larger than the old side's interquartile range. It exits 2
when a src has no trajbound package or the config does not exist, and 1
when a process fails. Standard library only.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Run in each fresh process: argv is src, config, repeats.
_CHILD = """
import dataclasses, os, sys, tempfile, time
src, config_path, repeats = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path.insert(0, src)
import trajbound
from trajbound.config import parse_config
from trajbound.experiments import COMMANDS
here = os.path.dirname(os.path.realpath(trajbound.__file__))
if here != os.path.join(os.path.realpath(src), "trajbound"):
    sys.exit(f"imported trajbound from {here}, not from {src}")
with tempfile.TemporaryDirectory() as out:
    cfg = dataclasses.replace(parse_config(config_path), output_dir=out)
    command = COMMANDS[cfg.experiment]
    command(cfg)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        command(cfg)
        best = min(best, time.perf_counter() - start)
print(best)
"""


def time_once(src: Path, config: Path, repeats: int) -> float:
    """The fastest of `repeats` warm calls in one fresh interpreter, in seconds."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    done = subprocess.run([sys.executable, "-c", _CHILD, str(src), str(config), str(repeats)],
                          env=env, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"{src}: exit {done.returncode}\n{done.stderr}")
    return float(done.stdout.split()[-1])


def quartiles(times: list[float]) -> list[float]:
    """The lower quartile, the median and the upper quartile of the times."""
    if len(times) == 1:
        return times * 3
    return statistics.quantiles(times, n=4, method="inclusive")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="the baseline src/ directory")
    parser.add_argument("new", type=Path, help="the changed src/ directory")
    parser.add_argument("experiment", help="a config file, or a shipped config's name")
    parser.add_argument("--pairs", type=int, default=10, help="fresh-process pairs (10)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed calls per process, the fastest kept (3)")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.repeats < 1:
        parser.error("--pairs and --repeats must be >= 1")
    config = Path(args.experiment)
    if not config.is_file():
        config = ROOT / "configs" / f"{args.experiment}.cfg"
    problems = [f"no trajbound package under {src}" for src in (args.old, args.new)
                if not (src / "trajbound" / "__init__.py").is_file()]
    if not config.is_file():
        problems.append(f"no config file {args.experiment} or {config}")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    old_s, new_s = [], []
    try:
        for pair in range(args.pairs):
            new_first = pair % 2 == 1
            sides = [(args.new, new_s), (args.old, old_s)]
            for src, times in sides if new_first else sides[::-1]:
                times.append(time_once(src, config, args.repeats))
            print(f"pair {pair + 1}: old {old_s[-1]:.4f} s, new {new_s[-1]:.4f} s "
                  f"({'new' if new_first else 'old'} first)", flush=True)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    sides = {}
    for name, times in (("old", old_s), ("new", new_s)):
        sides[name] = low, median, high = quartiles(times)
        print(f"{name} median {median:.4f} s, quartiles {low:.4f} s and {high:.4f} s")
    (old_low, old_median, old_high), new_median = sides["old"], sides["new"][1]
    won = sum(n < o for o, n in zip(old_s, new_s))
    tied = sum(n == o for o, n in zip(old_s, new_s))
    print(f"new / old {new_median / old_median:.3f}; new faster in {won}, "
          f"slower in {args.pairs - won - tied}, tied in {tied} of {args.pairs} pairs")
    gap, spread = old_median - new_median, old_high - old_low
    met = 10 * won >= 9 * args.pairs and gap > spread
    print(f"claim rule {'met' if met else 'not met'}: new faster in {won} of "
          f"{args.pairs} pairs (at least 9/10 needed), median gap {gap:.4f} s "
          f"(above the old interquartile range {spread:.4f} s needed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
