"""Script tests: the figure reproduction script end to end."""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_reproduce_figures_rerun_is_byte_identical(tmp_path, monkeypatch, capsys):
    script = runpy.run_path(str(SCRIPTS / "reproduce_figures.py"))
    for out in ("a", "b"):
        args = ["--nsims", "200", "--seed", "0", "--out", str(tmp_path / out)]
        monkeypatch.setattr(sys, "argv", ["reproduce_figures.py", *args])
        assert script["main"]() == 0
    csvs = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.csv"))
    assert len(csvs) == 10
    for path in csvs:
        assert (tmp_path / "a" / path).read_bytes() == (tmp_path / "b" / path).read_bytes(), path
