"""The stage-timing benchmark script keeps running and reports every size."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "sizes.py"


def test_sizes_runs_at_toy_size(capsys, monkeypatch):
    # The script imports its instances from optimality_gap.py beside it.
    monkeypatch.syspath_prepend(str(SCRIPT.parent))
    spec = importlib.util.spec_from_file_location("sizes", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    argv = ["--sizes", "20x2", "30x3", "--tight", "20x2", "--runs", "2", "--budget-ms", "10"]
    assert module.main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[3:]
    cells = [[c.strip() for c in r.strip("|").split("|")] for r in rows]
    assert [c[0] for c in cells] == ["20×2", "30×3", "20×2 tight"]
    for c in cells:
        assert len(c) == 9
        # Nodes used against the 10 ms budget's 700 nodes.
        assert c[6].endswith(" / 700")
