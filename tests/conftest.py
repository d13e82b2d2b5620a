"""Fixtures shared by the test modules."""

import pytest

from subspace_dfo import experiments


@pytest.fixture(autouse=True)
def empty_draw_store(monkeypatch):
    """Each test starts with no kept figure draw, so none reads a draw that
    another test made."""
    monkeypatch.setattr(experiments, "_ITERATION_DRAWS", {})


@pytest.fixture
def grid_draws(monkeypatch):
    """The (variant, cells, n_sims) of every ``estimates`` call that
    ``experiments`` makes, in call order: one per Monte Carlo draw of a
    figure or a gate."""
    calls = []
    draw = experiments.estimates

    def spy(variant, cells, n_sims, rng):
        cells = tuple(cells)
        calls.append((variant, cells, n_sims))
        return draw(variant, cells, n_sims, rng)

    monkeypatch.setattr(experiments, "estimates", spy)
    return calls
