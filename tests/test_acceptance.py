"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single [PASS]/[FAIL] line (visible with ``pytest -s`` and
in captured output on failure).  Criteria with a stated runtime budget are
timed; everything runs from seed 0 with 10^4 replicates unless the criterion
says otherwise.
"""

import math
import time
from pathlib import Path

import numpy as np

from subspace_dfo import (
    RngStream,
    Variant,
    expected_decrease_ds,
    expected_decrease_mb,
    gamma_half_ratio,
    paired_ratio_gap,
    polling_factor,
    split_stream,
)
from subspace_dfo.cli import main
from subspace_dfo.experiments import (
    D_GRID,
    default_figure_spec,
    gate_asymptotics,
    gate_basis_invariance,
    gate_ds_closed_form,
    gate_mb_closed_form,
    gate_optimizer_behavior,
    gate_parallel_sweeps,
    gate_per_evaluation_monotonicity,
    gate_quadrature_constants,
    gate_ratio_identities,
    gate_separability,
    run_named_figure,
)

NSIMS = 10_000
SEED = 0


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, detail


def test_criterion_1_ds_closed_form_cross_check():
    start = time.perf_counter()
    gate = gate_ds_closed_form(n_sims=NSIMS, seed=SEED)
    elapsed = time.perf_counter() - start
    _report(1, gate.passed and elapsed < 30.0, f"{gate.detail}; runtime {elapsed:.1f}s < 30s")


def test_criterion_2_mb_closed_form_cross_check():
    start = time.perf_counter()
    gate = gate_mb_closed_form(n_sims=NSIMS, seed=SEED)
    elapsed = time.perf_counter() - start
    # The p = d cells must be exact on both sides, not merely within noise;
    # the gate scores every cell on this one shared draw.
    rows = run_named_figure(default_figure_spec("mb-vary-d", NSIMS, SEED))
    shared = {(r.p, r.d): r.value for r in rows if r.method == "mc"}
    exactness = all(
        expected_decrease_mb(d, d) == 1.0 and shared[d, d] == 1.0 for d in D_GRID
    )
    _report(
        2,
        gate.passed and exactness and elapsed < 30.0,
        f"{gate.detail}; p=d exact on both paths; runtime {elapsed:.1f}s < 30s",
    )


def test_criterion_3_quadrature_constants():
    start = time.perf_counter()
    gate = gate_quadrature_constants(n_sims=NSIMS, seed=SEED)
    level2 = abs(polling_factor(2) - math.sqrt(2.0 / math.pi))
    elapsed = time.perf_counter() - start
    _report(
        3,
        gate.passed and level2 <= 1e-10 and elapsed < 10.0,
        f"{gate.detail}; runtime {elapsed:.1f}s < 10s",
    )


def test_criterion_4_ratio_identities():
    gate = gate_ratio_identities(n_sims=NSIMS, seed=SEED)
    _report(4, gate.passed, gate.detail)


def test_criterion_5_per_evaluation_monotonicity():
    gate = gate_per_evaluation_monotonicity(n_sims=NSIMS, seed=SEED)
    DS, MB = Variant.named("ds"), Variant.named("mb")
    chains_ok = True
    for d in (64, 1024):
        top = min(d - 1, 64)
        ds_seq = [DS.per_work(p, d, 1) for p in range(1, top + 1)]
        chains_ok &= all(a > b for a, b in zip(ds_seq, ds_seq[1:]))
        mb_seq = [MB.per_work(p, d, 1) for p in range(2, top + 1)]
        chains_ok &= all(a > b for a, b in zip(mb_seq, mb_seq[1:]))
        chains_ok &= MB.per_work(1, d, 1) > MB.per_work(2, d, 1)
    drops_ok = True
    base = split_stream(RngStream(SEED), 50)
    for i, variant in enumerate(("ds", "mb")):
        rounds = Variant.named(variant).rounds
        for p in range(1, 6):
            # Per evaluation, value at p exceeds value at p + 1.
            delta = paired_ratio_gap(
                variant, p + 1, p, 1000, rounds(p, 1) / rounds(p + 1, 1), NSIMS,
                split_stream(base, 10 * i + p),
            )
            drops_ok &= delta.mean > 3.0 * delta.std_error
    _report(5, gate.passed and chains_ok and drops_ok, gate.detail)


def test_criterion_6_separability():
    gate = gate_separability(n_sims=NSIMS, seed=SEED)
    _report(6, gate.passed, gate.detail)


def test_criterion_7_asymptotics():
    gate = gate_asymptotics(n_sims=NSIMS, seed=SEED)
    spot_ok = True
    for variant in ("ds", "mb"):
        exact_fn = expected_decrease_ds if variant == "ds" else expected_decrease_mb
        for p in (1, 2):
            for d in (100, 512, 1024):
                exact = exact_fn(p, d)
                asym = Variant.named(variant).asymptotic(p, d)
                spot_ok &= abs(asym - exact) / exact < 0.01
    _report(7, gate.passed and spot_ok, gate.detail)


def test_criterion_8_basis_invariance():
    gate = gate_basis_invariance(n_sims=NSIMS, seed=SEED)
    _report(8, gate.passed, gate.detail)


def test_criterion_9_parallel_sweeps():
    start = time.perf_counter()
    gate = gate_parallel_sweeps(n_sims=NSIMS, seed=SEED)
    elapsed = time.perf_counter() - start
    _report(9, gate.passed and elapsed < 60.0, f"{gate.detail}; runtime {elapsed:.1f}s < 60s")


def test_criterion_10_optimizer_behavior():
    gate = gate_optimizer_behavior(n_sims=NSIMS, seed=SEED)
    _report(10, gate.passed, gate.detail)


def test_criterion_11_verify_determinism(tmp_path, capsys, grid_draws):
    start = time.perf_counter()
    code_a = main(["verify", "--seed", "0", "--out", str(tmp_path / "a")])
    first_runtime = time.perf_counter() - start
    first_draws = list(grid_draws)
    code_b = main(["verify", "--seed", "0", "--out", str(tmp_path / "b")])
    # The second run draws every Monte Carlo cell again.
    assert first_draws and grid_draws == first_draws * 2
    capsys.readouterr()
    bytes_a = (tmp_path / "a" / "verify_gates.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "verify_gates.csv").read_bytes()
    ok = code_a == 0 and code_b == 0 and bytes_a == bytes_b and first_runtime < 300.0
    _report(
        11,
        ok,
        f"verify exit codes ({code_a}, {code_b}); byte-identical CSV: {bytes_a == bytes_b}; "
        f"runtime {first_runtime:.1f}s < 300s",
    )


def test_linear_iteration_identities_large_sample():
    # Statistical side of criterion 10 at full scale: decreases equal the
    # projected-gradient norms for every sampled basis; the p = 1 model cost
    # averages 3/2.
    from subspace_dfo import ObjectiveHandle, mb_iteration, sample_stiefel, sample_unit_vector

    d = 20
    base = split_stream(RngStream(SEED), 99)
    g = sample_unit_vector(d, split_stream(base, 0))
    objective = ObjectiveHandle(lambda x: float(g @ x), d)
    counts = np.empty(NSIMS)
    worst = 0.0
    for k in range(NSIMS):
        basis = sample_stiefel(d, 1, split_stream(base, k + 1))
        _, value, evaluations = mb_iteration(objective, np.zeros(d), 0.0, basis, 1.0)
        counts[k] = evaluations
        worst = max(worst, abs(-value - float(np.linalg.norm(basis.T @ g))))
    mean = counts.mean()
    se = counts.std(ddof=1) / math.sqrt(NSIMS)
    ok = worst <= 1e-12 and abs(mean - 1.5) <= 3.0 * se and set(counts) <= {1.0, 2.0}
    _report(
        10,
        ok,
        f"supplement: max |decrease - projected norm| = {worst:.2e}; "
        f"mean p=1 model evaluations = {mean:.4f} +- {se:.4f}",
    )


def test_package_exports_resolve():
    import subspace_dfo

    missing = [name for name in subspace_dfo.__all__ if not hasattr(subspace_dfo, name)]
    assert missing == [] and len(set(subspace_dfo.__all__)) == len(subspace_dfo.__all__)


def test_readme_quickstart_runs(capsys):
    # The README's Python block documents the API, so it must run as written.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    trace, objective = namespace["trace"], namespace["objective"]
    assert objective(trace.x) == trace.final.best_value
    assert str(trace.final.eval_count) in capsys.readouterr().out
