"""The repository's helper scripts."""

import os
import re
import subprocess
import sys

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
