"""The optimality-gap benchmark script keeps running, with scipy and without."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "optimality_gap.py"
TOY = ["--sizes", "20x2", "--campaign", "20x2", "--cycles", "2", "--time-limit", "5", "--budget-ms", "20"]


def load_script():
    spec = importlib.util.spec_from_file_location("optimality_gap", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_optimality_gap_runs_at_toy_size(capsys):
    pytest.importorskip("scipy.optimize")
    assert load_script().main(TOY) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [r.split()[0:2] for r in rows] == [["table", "20x2"], ["campaign", "c0"], ["campaign", "c1"]]
    for r in rows:
        fields = r.split()
        assert fields[-9] in ("optimal", "limit")
        # The schedules lie below the MILP's best, its dual bound and the
        # root bound above it, and the final schedule is at least both seeds.
        dual, greedy, density, final, bound = map(float, fields[-7:-2])
        assert min(dual, greedy, density, final, bound) >= 0.0
        assert final <= min(greedy, density)


def test_optimality_gap_without_scipy_prints_one_line(monkeypatch, capsys):
    # A None entry makes the import raise ImportError, as if not installed.
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.optimize", None)
    assert load_script().main(TOY) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1
