"""Script tests: the figure reproduction and optimizer demo scripts end to end."""

import json
import runpy
import sys
from pathlib import Path

import pytest

from subspace_dfo import VARIANTS, Variant, run_parallel_sweep

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_reproduce_figures_rerun_is_byte_identical(tmp_path, monkeypatch, capsys, grid_draws):
    script = runpy.run_path(str(SCRIPTS / "reproduce_figures.py"))
    for out in ("a", "b"):
        args = ["--nsims", "200", "--seed", "0", "--out", str(tmp_path / out)]
        monkeypatch.setattr(sys, "argv", ["reproduce_figures.py", *args])
        assert script["main"]() == 0
    # Each run draws once per variant, in its vary-d grid; the other named
    # grids read that draw.
    assert len(grid_draws) == 4 and grid_draws[:2] == grid_draws[2:]
    csvs = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.csv"))
    assert len(csvs) == 10
    for path in csvs:
        assert (tmp_path / "a" / path).read_bytes() == (tmp_path / "b" / path).read_bytes(), path
    # Each sweep manifest records the argmax and ties of the library sweep.
    for variant in VARIANTS:
        record = Variant.named(variant)
        _, ties = run_parallel_sweep(variant, record.sweep_d, record.sweep_cores)
        path = tmp_path / "a" / f"parallel-sweep-{variant}" / "parallel-sweep.manifest.json"
        manifest = json.loads(path.read_text())
        assert manifest["argmax"] == {str(c): tied[0] for c, tied in ties.items()}
        assert manifest["ties"] == {str(c): list(tied) for c, tied in ties.items()}


def test_reproduce_figures_refuses_a_bare_only(tmp_path, monkeypatch, capsys):
    script = runpy.run_path(str(SCRIPTS / "reproduce_figures.py"))
    monkeypatch.setattr(sys, "argv", ["reproduce_figures.py", "--out", str(tmp_path), "--only"])
    with pytest.raises(SystemExit) as exit_info:
        script["main"]()
    assert exit_info.value.code == 2
    assert "--only: expected at least one argument" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_reproduce_figures_only_runs_each_name_once_in_figure_order(
    tmp_path, monkeypatch, capsys, grid_draws
):
    script = runpy.run_path(str(SCRIPTS / "reproduce_figures.py"))
    only = ["ds-perfev-vary-d", "ds-vary-d", "ds-perfev-vary-d", "ds-vary-d"]
    args = ["--nsims", "100", "--seed", "0", "--out", str(tmp_path), "--only", *only]
    monkeypatch.setattr(sys, "argv", ["reproduce_figures.py", *args])
    assert script["main"]() == 0
    wrote = [line.split()[1] for line in capsys.readouterr().out.splitlines()
             if line.startswith("wrote") and line.endswith(".csv")]
    assert wrote == [str(tmp_path / "ds-vary-d.csv"), str(tmp_path / "ds-perfev-vary-d.csv")]
    # The perfev grid reads the draw of its sibling, run first: the figure
    # draw of ds, whose last cell is the last vary-p cell.
    assert [cells[-1] for _, cells, _ in grid_draws] == [(1000, 1000)]


def test_optimizer_demo_runs_every_kind_at_three_dimensions(monkeypatch, capsys):
    script = runpy.run_path(str(SCRIPTS / "optimizer_demo.py"))
    monkeypatch.setattr(sys, "argv", ["optimizer_demo.py", "--d", "6", "--budget", "60"])
    assert script["main"]() == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [row.split()[:2] for row in rows] == [
        [kind, p] for kind in ("ds-complete", "ds-opportunistic", "mb") for p in ("1", "2", "3")
    ]
