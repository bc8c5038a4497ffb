"""Smoke test of scripts/loc.py."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "loc", Path(__file__).resolve().parent.parent / "scripts" / "loc.py"
)
loc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(loc)


def test_loc_prints_one_line_per_module_and_a_positive_total(capsys):
    assert loc.main() == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    modules = sorted(p.name for p in loc.SRC.glob("*.py"))
    assert [name for name, _ in lines[:-1]] == modules
    counts = [int(count) for _, count in lines]
    assert lines[-1][0] == "total" and counts[-1] == sum(counts[:-1]) > 0


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    source = '"""Module.\n\ndoc."""\n\n# comment\nx = (1,\n     2)  # trailing\n\n\ndef f():\n    """Doc."""\n    return x\n'
    assert loc.code_lines(source) == 4
