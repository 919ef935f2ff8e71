"""The stage-timing benchmark script keeps running, reports every size and suggests NODES_PER_MS."""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

from cisched.solver import NODES_PER_MS

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "sizes.py"


def load_script(monkeypatch):
    # The script imports its instances from optimality_gap.py beside it.
    monkeypatch.syspath_prepend(str(SCRIPT.parent))
    spec = importlib.util.spec_from_file_location("sizes", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(*throughputs, stop="node_budget"):
    """One row's runs, as measure() returns them, for suggestion()."""
    return [{"stop": stop, "solve nodes/ms": t} for t in throughputs]


def test_sizes_runs_at_toy_size(capsys, monkeypatch):
    module = load_script(monkeypatch)
    argv = ["--sizes", "20x2", "30x3", "--tight", "20x2", "--runs", "2", "--budget-ms", "10"]
    assert module.main(argv) == 0
    *rows, blank, suggested = capsys.readouterr().out.splitlines()[3:]
    cells = [[c.strip() for c in r.strip("|").split("|")] for r in rows]
    assert [c[0] for c in cells] == ["20×2", "30×3", "20×2 tight"]
    for c in cells:
        assert len(c) == 9
        # Nodes used against the 10 ms budget's 700 nodes.
        assert c[6].endswith(" / 700")
    # Every toy search uses its whole node budget, so the line gives a number.
    assert blank == ""
    prefix = re.escape("suggested solver.NODES_PER_MS (half the lowest row median of node-budget solves): ")
    assert re.fullmatch(prefix + rf"[1-9][\d,]* \(current {NODES_PER_MS}\)", suggested), suggested
    # A row with a search that ends early does not count; with none left,
    # the line says so.
    early = module.suggestion([runs(1.0) + runs(1.0, stop="exhausted")])
    assert re.fullmatch(prefix + rf"none, no row used its whole node budget in every run \(current {NODES_PER_MS}\)", early)


def test_one_slow_run_does_not_set_the_suggestion(monkeypatch):
    # Half the lowest row median (90 nodes/ms), not half the slowest run (30).
    module = load_script(monkeypatch)
    suggested = module.suggestion([runs(120.0, 118.0, 125.0), runs(92.0, 30.0, 90.0, 88.0, 95.0)])
    assert suggested.endswith(f": 45 (current {NODES_PER_MS})"), suggested
