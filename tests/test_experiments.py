"""Experiment-layer tests: grids, CSV stability, sweeps, named objectives."""

import dataclasses
import json
import math
import re
import threading
import time
import tracemalloc

import numpy as np
import pytest

from subspace_dfo import (
    Check,
    DomainError,
    DriverConfig,
    ExperimentSpec,
    GateResult,
    InvalidDimensionError,
    ResultRow,
    RngStream,
    TraceRecord,
    Variant,
    estimates,
    expected_decrease_ds,
    expected_decrease_mb,
    gamma_half_ratio,
    make_objective,
    run_optimizer_experiment,
    run_parallel_sweep,
    run_verify,
    split_stream,
)
from subspace_dfo import experiments, montecarlo
from subspace_dfo.cli import main
from subspace_dfo.experiments import (
    D_GRID,
    METHODS,
    default_figure_spec,
    gate_basis_invariance,
    gate_ds_closed_form,
    gate_mb_closed_form,
    gate_optimizer_behavior,
    gate_quadrature_constants,
    p_values_for,
    row_stream,
    run_named_figure,
    to_csv,
)

SQRT_PI = math.sqrt(math.pi)


def small_vary_d_spec(variant: str, **overrides) -> ExperimentSpec:
    """A two-d grid; ``outputs="per-evaluation"`` names its perfev figure."""
    outputs = overrides.get("outputs", "per-iteration")
    perfev = "perfev-" if outputs == "per-evaluation" else ""
    spec = ExperimentSpec(
        name=f"{variant}-{perfev}vary-d",
        variant=variant,
        d_values=(8, 16),
        p_rule="standard",
        n_sims=2000,
        seed=0,
        outputs=outputs,
    )
    return spec.merged(overrides)


class TestSpec:
    def test_standard_p_rule(self):
        assert p_values_for(8, "standard") == (1, 2, 4, 8)
        assert p_values_for(2, "standard") == (1, 2)
        assert p_values_for(1, "standard") == (1,)

    def test_explicit_p_rule_truncates_to_d(self):
        assert p_values_for(16, (1, 2, 20)) == (1, 2)

    def test_from_dict_and_merge(self):
        spec = default_figure_spec("ds-vary-d").merged(
            {
                "name": "ds-vary-d",
                "variant": "ds",
                "d_values": [8, 16],
                "p_rule": [1, 2],
                "n_sims": 100,
            }
        )
        assert spec.d_values == (8, 16)
        merged = spec.merged({}, n_sims=None, seed=3)
        assert merged.n_sims == 100 and merged.seed == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(name="x", variant="zz", d_values=(8,))
        for outputs in ("sideways", "both"):
            message = f"outputs must be one of ('per-iteration', 'per-evaluation'), got '{outputs}'"
            with pytest.raises(ValueError, match=re.escape(message)):
                ExperimentSpec(name="x", variant="ds", d_values=(8,), outputs=outputs)
        with pytest.raises(ValueError, match="no p value is at most max"):
            ExperimentSpec(name="x", variant="ds", d_values=(8,), p_rule=(9,))
        with pytest.raises(ValueError, match=re.escape("p_rule must be positive, got (0, 2)")):
            ExperimentSpec(name="x", variant="ds", d_values=(8,), p_rule=(0, 2))
        for key in ("d_values", "p_rule"):
            with pytest.raises(ValueError, match=f"{key} must name at least one value, got none"):
                ExperimentSpec(**{"name": "x", "variant": "ds", "d_values": (8,), key: ()})
        # Entries above max(d) are dropped per d, as p_values_for does.
        spec = ExperimentSpec(name="x", variant="ds", d_values=(4, 8), p_rule=(2, 6, 9))
        assert [p_values_for(d, spec.p_rule) for d in spec.d_values] == [(2,), (2, 6)]

    def test_include_takes_any_iterable_and_keeps_methods_order(self):
        # A set reads as a list does, and the stored order does not depend
        # on the set's iteration order.
        for include in ({"mc", "exact"}, frozenset({"asymptotic", "mc"}), ["mc", "exact"]):
            spec = ExperimentSpec(name="x", variant="ds", d_values=(8,), include=include)
            assert spec.include == tuple(m for m in METHODS if m in include)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_is_refused_when_built(self, seed):
        with pytest.raises(ValueError, match=f"seed must be a 64-bit unsigned integer, got {seed}"):
            ExperimentSpec(name="x", variant="ds", d_values=(8,), seed=seed)


# Every public entry point that takes a replicate count, called with n_sims.
REPLICATE_COUNT_ENTRY_POINTS = {
    "estimate-reduced": lambda n: montecarlo.estimate("ds", 2, 8, n, RngStream(0)),
    "estimate-full-basis": lambda n: montecarlo.estimate(
        "ds", 2, 8, n, RngStream(0), "full-basis"
    ),
    "estimates": lambda n: estimates("mb", [(1, 8), (2, 16)], n, RngStream(0)),
    "full_basis_estimates": lambda n: montecarlo.full_basis_estimates(
        (1, 2), 8, n, RngStream(0)
    ),
    "paired_ratio_gap": lambda n: montecarlo.paired_ratio_gap(
        "ds", 1, 2, 8, 1.0, n, RngStream(0)
    ),
    "replicate_decreases": lambda n: montecarlo.replicate_decreases("mb", 2, 8, n, RngStream(0)),
    "ExperimentSpec": lambda n: ExperimentSpec(
        name="ds-vary-d", variant="ds", d_values=(8,), n_sims=n
    ),
    "run_verify": lambda n: run_verify(n_sims=n),
    "gate_optimizer_behavior": lambda n: gate_optimizer_behavior(n_sims=n),
}


@pytest.mark.parametrize("n_sims", [True, 1.5, 0, 1, -1])
@pytest.mark.parametrize("entry", list(REPLICATE_COUNT_ENTRY_POINTS))
def test_bad_replicate_count_is_refused_before_any_draw(monkeypatch, entry, n_sims):
    # A standard error needs two replicates, so every entry point refuses a
    # count below 2, or one that is not an integer, before it makes a generator.
    made = []
    generator = RngStream.generator
    monkeypatch.setattr(RngStream, "generator", lambda self: made.append(self) or generator(self))
    message = rf"n_sims must be .*, got {re.escape(repr(n_sims))}$"
    with pytest.raises(ValueError, match=message):
        REPLICATE_COUNT_ENTRY_POINTS[entry](n_sims)
    assert made == []


class TestGridRows:
    def test_vary_d_row_population(self):
        rows = run_named_figure(small_vary_d_spec("ds"))
        mc = [r for r in rows if r.method == "mc"]
        exact = [r for r in rows if r.method == "exact"]
        asym = [r for r in rows if r.method == "asymptotic"]
        # Standard rule gives 4 cells per d; each gets an exact and an asymptotic row.
        assert len(mc) == 8 and len(exact) == 8 and len(asym) == 8
        assert {(r.d, r.p) for r in exact} == {(r.d, r.p) for r in asym} == {
            (8, 1), (8, 2), (8, 4), (8, 8), (16, 1), (16, 2), (16, 8), (16, 16)
        }
        assert all(r.std_error is not None and r.n_sims == 2000 for r in mc)
        assert all(r.std_error is None and r.n_sims is None for r in exact)

    def test_exact_row_values(self):
        rows = run_named_figure(small_vary_d_spec("ds"))
        lookup = {(r.d, r.p): r.value for r in rows if r.method == "exact"}
        assert lookup[(8, 1)] == pytest.approx(
            gamma_half_ratio(8) / SQRT_PI, rel=1e-14
        )
        assert lookup[(8, 2)] == pytest.approx(expected_decrease_ds(2, 8), rel=1e-14)

    def test_mc_matches_exact_within_three_se(self):
        for variant in ("ds", "mb"):
            rows = run_named_figure(small_vary_d_spec(variant, n_sims=10_000))
            exact = {
                (r.d, r.p): r.value for r in rows if r.method == "exact"
            }
            for r in rows:
                if r.method == "mc" and (r.d, r.p) in exact:
                    assert abs(r.value - exact[(r.d, r.p)]) <= 3.0 * r.std_error

    @pytest.mark.parametrize("variant", ["ds", "mb"])
    def test_per_evaluation_outputs(self, variant):
        # Each perfev row is its sibling's row divided by one iteration's cost.
        record = Variant.named(variant)
        rows = run_named_figure(small_vary_d_spec(variant))
        perfev = run_named_figure(small_vary_d_spec(variant, outputs="per-evaluation"))
        assert {r.metric for r in rows} == {"per-iteration"}
        assert {r.method for r in rows} == {"mc", "exact", "asymptotic"}
        assert len(perfev) == len(rows)
        for r, e in zip(rows, perfev):
            cost = record.rounds(r.p, 1)
            se = None if r.std_error is None else r.std_error / cost
            assert e == dataclasses.replace(
                r, metric="per-evaluation", value=r.value / cost, std_error=se
            )

    def test_vary_p_exact_rows_at_every_p(self):
        spec = ExperimentSpec(
            name="ds-vary-p",
            variant="ds",
            d_values=(64,),
            p_rule=(1, 2, 3, 10, 64),
            n_sims=2000,
            seed=1,
            include=("exact", "mc"),
        )
        rows = run_named_figure(spec)
        exact = {r.p: r.value for r in rows if r.method == "exact"}
        mc = {r.p: r for r in rows if r.method == "mc"}
        assert set(exact) == set(mc) == {1, 2, 3, 10, 64}
        for p, value in exact.items():
            assert abs(mc[p].value - value) <= 4.0 * mc[p].std_error, p

    def test_vary_p_full_dimension_model_cell_is_exactly_one(self):
        spec = ExperimentSpec(
            name="mb-vary-p",
            variant="mb",
            d_values=(200,),
            p_rule=(1, 200),
            n_sims=1000,
            seed=0,
            include=("mc",),
        )
        rows = run_named_figure(spec)
        top = [r for r in rows if r.p == 200]
        assert len(top) == 1 and top[0].value == 1.0 and top[0].std_error == 0.0

    def test_vary_p_ratio_between_first_levels(self):
        # MC means at p = 2 and p = 1 reproduce the sqrt(2) per-iteration ratio
        # within combined standard errors.
        spec = ExperimentSpec(
            name="ds-vary-p",
            variant="ds",
            d_values=(1000,),
            p_rule=(1, 2),
            n_sims=10_000,
            seed=0,
            include=("mc",),
        )
        rows = run_named_figure(spec)
        by_p = {r.p: r for r in rows}
        m1, m2 = by_p[1], by_p[2]
        gap = abs(m2.value - math.sqrt(2.0) * m1.value)
        combined = math.hypot(m2.std_error, math.sqrt(2.0) * m1.std_error)
        assert gap <= 3.0 * combined

    def test_vary_d_top_dimension_mc_cell(self):
        spec = ExperimentSpec(
            name="ds-vary-d",
            variant="ds",
            d_values=(1024,),
            p_rule="standard",
            n_sims=500,
            seed=0,
            include=("mc",),
        )
        rows = run_named_figure(spec)
        top = next(r for r in rows if r.p == 1024)
        assert 0.0 < top.value <= 1.0
        assert top.std_error > 0.0

    def test_default_figure_specs(self):
        spec = default_figure_spec("mb-perfev-vary-d")
        assert spec.variant == "mb" and spec.outputs == "per-evaluation"
        assert spec.d_values == (8, 16, 32, 64, 128, 256, 512, 1024)
        assert spec.include == ("exact", "mc", "asymptotic")
        spec = default_figure_spec("ds-vary-p")
        assert spec.d_values == (1000,) and spec.include == ("exact", "mc")
        with pytest.raises(ValueError):
            default_figure_spec("parallel-sweep")


class TestFigureRowDraws:
    """Every cell of a figure is scored on one draw from the row stream of its
    largest d; a cell at d reads that draw's first d coordinates."""

    @staticmethod
    def _spy_scores(monkeypatch):
        calls = []
        for name in ("_polling_scores", "_model_scores"):
            scores = getattr(montecarlo, name)

            def spy(gen, cells, out, scores=scores):
                calls.append((cells, threading.current_thread() is threading.main_thread()))
                return scores(gen, cells, out)

            monkeypatch.setattr(montecarlo, name, spy)
        return calls

    # The (p, d) cells of small_vary_d_spec, in row order.
    SMALL_CELLS = ((1, 8), (2, 8), (4, 8), (8, 8), (1, 16), (2, 16), (8, 16), (16, 16))

    @pytest.mark.parametrize("variant", ["ds", "mb"])
    def test_mc_rows_equal_estimates_on_the_row_stream(self, variant):
        # test_per_evaluation_outputs checks that perfev rows divide these.
        spec = small_vary_d_spec(variant, n_sims=700, seed=4)
        rows = run_named_figure(spec)
        cells = [(p, d) for d in spec.d_values for p in p_values_for(d, spec.p_rule)]
        assert tuple(cells) == self.SMALL_CELLS
        ests = estimates(variant, cells, 700, row_stream(RngStream(4), variant, 16))
        assert len(ests) == len(cells)
        for (p, d), est in zip(cells, ests):
            mc = [r for r in rows if r.method == "mc" and (r.d, r.p) == (d, p)]
            assert [(r.metric, r.value, r.std_error, r.n_sims, r.seed) for r in mc] == [
                ("per-iteration", est.mean, est.std_error, 700, 4)
            ]

    @pytest.mark.parametrize("variant,n_blocks", [("ds", 1), ("mb", 1), ("ds", 2)])
    def test_one_score_call_per_block_per_figure(self, monkeypatch, variant, n_blocks):
        calls = self._spy_scores(monkeypatch)
        n_sims = montecarlo._BLOCK * (n_blocks - 1) + 50
        run_named_figure(small_vary_d_spec(variant, n_sims=n_sims))
        assert [cells for cells, _ in calls] == [self.SMALL_CELLS] * n_blocks

    def test_a_d_without_p_draws_nothing_and_emits_no_rows(self, monkeypatch):
        calls = self._spy_scores(monkeypatch)
        spec = ExperimentSpec(
            name="ds-vary-d", variant="ds", d_values=(4, 8), p_rule=(6,), n_sims=100
        )
        rows = run_named_figure(spec)
        assert [(r.d, r.p, r.method) for r in rows] == [
            (8, 6, "mc"), (8, 6, "exact"), (8, 6, "asymptotic")
        ]
        assert [cells for cells, _ in calls] == [((6, 8),)]

    def test_smaller_d_reads_the_leading_coordinates_of_the_top_draw(self):
        # One block of 500 replicates is one chunk of the d = 16 head, so the
        # d = 8 cells score the first 8 of its 16 columns against their norm.
        spec = small_vary_d_spec("ds", n_sims=500, seed=6, include=("mc",))
        rows = {(r.d, r.p): r for r in run_named_figure(spec)}
        gen = split_stream(row_stream(RngStream(6), "ds", 16), 0).generator()
        head = gen.standard_normal((500, 16))[:, :8]
        norm = np.sqrt(np.sum(head * head, axis=1))
        for p in (1, 2, 4, 8):
            scores = np.max(np.abs(head[:, :p]), axis=1) / norm
            row = rows[8, p]
            assert row.value == pytest.approx(np.mean(scores), rel=1e-13, abs=0.0)
            se = np.std(scores, ddof=1) / np.sqrt(500)
            assert row.std_error == pytest.approx(se, rel=1e-10, abs=0.0)

    def test_model_cells_read_the_chi_square_pieces_in_order(self):
        # The sorted points 1, 2, 4, 8, 16 of every p and d cut z into five
        # pieces, drawn in that order; a cell scores sqrt(S_p / S_d).
        spec = small_vary_d_spec("mb", n_sims=500, seed=6, include=("mc",))
        rows = {(r.d, r.p): r for r in run_named_figure(spec)}
        gen = split_stream(row_stream(RngStream(6), "mb", 16), 0).generator()
        sums = {0: np.zeros(500)}
        for lo, hi in ((0, 1), (1, 2), (2, 4), (4, 8), (8, 16)):
            sums[hi] = sums[lo] + 2.0 * gen.standard_gamma((hi - lo) / 2.0, 500)
        for p, d in self.SMALL_CELLS:
            scores = np.sqrt(sums[p] / sums[d])
            assert rows[d, p].value == np.mean(scores)

    def test_a_vary_d_figure_draws_n_sims_normals_per_head_column(self, monkeypatch):
        # The head is max(p) = 1024 columns wide, drawn once for all eight d.
        drawn = []
        generator = RngStream.generator

        class Counting:
            def __init__(self, gen):
                self.gen = gen

            def standard_normal(self, *args, **kwargs):
                values = self.gen.standard_normal(*args, **kwargs)
                drawn.append(values.size)
                return values

            def __getattr__(self, name):
                return getattr(self.gen, name)

        monkeypatch.setattr(RngStream, "generator", lambda self: Counting(generator(self)))
        n_sims = montecarlo._BLOCK + 100
        run_named_figure(default_figure_spec("ds-vary-d", n_sims=n_sims))
        assert sum(drawn) == n_sims * max(D_GRID)

    def test_one_default_ds_vary_d_grid_peaks_under_6_mib(self, monkeypatch):
        # Measured at 4.8 MiB on two workers: 2.4 MiB of (32 cells, 10^4)
        # replicate values, and about 1 MiB per worker's block.
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        spec = default_figure_spec("ds-vary-d")
        tracemalloc.start()
        try:
            run_named_figure(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20, peak

    def test_row_stream_is_stable_and_keyed_by_variant(self):
        def first_draws(stream):
            return stream.generator().standard_normal(4).tobytes()

        base = RngStream(0)
        for variant in ("ds", "mb"):
            row = first_draws(row_stream(base, variant, 16))
            assert row == first_draws(row_stream(RngStream(0), variant, 16))
        assert first_draws(row_stream(base, "ds", 16)) != first_draws(row_stream(base, "mb", 16))

    def test_worker_threads_give_the_serial_bytes(self, monkeypatch):
        # A polling block draws more than 2^16 values at max(p) = 200, so the
        # figure's two blocks go to worker threads when two CPUs are usable.
        spec = ExperimentSpec(
            name="ds-vary-d", variant="ds", d_values=(100, 200), p_rule=(20, 1, 200, 5),
            n_sims=montecarlo._BLOCK + 100, seed=2, include=("mc",),
        )
        calls = self._spy_scores(monkeypatch)
        texts = {}
        for cpus in (1, 2):
            monkeypatch.setattr(montecarlo, "_usable_cpus", lambda cpus=cpus: cpus)
            texts[cpus] = to_csv(ResultRow, run_named_figure(spec))
        assert texts[1] == texts[2]
        assert [on_main for _, on_main in calls] == [True, True, False, False]


class TestCsvSerialization:
    def test_header_and_order(self):
        rows = [ResultRow("ds", 8, 1, "exact", "per-iteration", 0.25)]
        text = to_csv(ResultRow, rows)
        lines = text.splitlines()
        assert lines[0] == "variant,d,p,method,metric,value,std_error,n_sims,seed"
        assert lines[1] == "ds,8,1,exact,per-iteration,0.25,,,"

    # The schemas are a contract: a reordered record field must fail here.
    @pytest.mark.parametrize(
        "kind, header",
        [
            (ResultRow, "variant,d,p,method,metric,value,std_error,n_sims,seed"),
            (TraceRecord, "iteration,eval_count,best_value,step_size"),
            (GateResult, "criterion,name,passed,detail"),
            (Check, "gate,cell,statistic,value,bound,kind"),
        ],
        ids=["figure", "trace", "verify", "verify-checks"],
    )
    def test_a_table_with_no_records_is_its_header(self, kind, header):
        assert to_csv(kind, []) == header + "\n"

    def test_cells_follow_the_value_type(self):
        gates = [GateResult(3, "name", True, "a, b,c"), GateResult(10, "other", False, "")]
        lines = to_csv(GateResult, gates).splitlines()
        assert lines[1:] == ["3,name,pass,a; b;c", "10,other,FAIL,"]
        row = ResultRow("mb", 8, 2, "mc", "per-iteration", 0.1, 1.0 / 3.0, 500, 2**64 - 1)
        assert to_csv(ResultRow, [row]).splitlines()[1] == (
            "mb,8,2,mc,per-iteration,0.10000000000000001,0.33333333333333331,500,"
            "18446744073709551615"
        )

    @pytest.mark.parametrize("step, cell", [(2, "2"), (10**17, "1e+17"), (10**17 + 1, "1e+17")])
    def test_an_integer_initial_step_is_written_as_its_float(self, step, cell):
        config = DriverConfig(p=1, max_evaluations=0, initial_step=step)
        trace, _ = run_optimizer_experiment("sphere-quadratic", 3, config)
        assert trace.records[0].step_size == float(step)
        assert to_csv(TraceRecord, trace.records).splitlines()[1] == f"0,1,1.5,{cell}"

    def test_seventeen_digit_round_trip(self):
        rows = run_named_figure(small_vary_d_spec("ds"))
        text = to_csv(ResultRow, rows)
        for line, row in zip(text.splitlines()[1:], rows):
            assert float(line.split(",")[5]) == row.value

    def test_byte_identical_rerun(self):
        a = to_csv(ResultRow, run_named_figure(small_vary_d_spec("mb")))
        b = to_csv(ResultRow, run_named_figure(small_vary_d_spec("mb")))
        assert a == b

    def test_seed_changes_mc_rows_only(self):
        a = run_named_figure(small_vary_d_spec("mb"))
        b = run_named_figure(small_vary_d_spec("mb", seed=1))
        for ra, rb in zip(a, b):
            if ra.method == "mc" and ra.std_error != 0.0:
                assert ra.value != rb.value
            else:
                assert ra.value == rb.value

    def test_result_row_validation(self):
        with pytest.raises(ValueError):
            ResultRow("ds", 8, 1, "exact", "per-iteration", 0.2, std_error=0.1)
        with pytest.raises(ValueError):
            ResultRow("ds", 8, 1, "mc", "per-iteration", 0.2)
        with pytest.raises(ValueError):
            ResultRow("ds", 8, 1, "exact", "per-iteration", 1.5)


class TestParallelSweep:
    def test_polling_argmax_at_half_cores(self):
        rows, ties = run_parallel_sweep("ds", 64, (2, 4, 8))
        assert list(ties) == [2, 4, 8]
        for cores, tied in ties.items():
            assert tied[0] == cores // 2
        # Grid steps by c/2 and is capped by d.
        c2 = sorted({r.p for r in rows if r.metric == "per-work(2)"})
        assert c2 == list(range(1, 65))

    def test_model_argmax_at_cores_with_tie(self):
        rows, ties = run_parallel_sweep("mb", 128, (1, 2, 4, 8))
        assert list(ties) == [1, 2, 4, 8]
        for cores, tied in ties.items():
            assert tied[0] == cores
        assert ties[2] == (2, 4)
        assert all(r.method == "exact" for r in rows)

    def test_polling_sweep_is_exact_at_every_p(self):
        rows, _ = run_parallel_sweep("ds", 1000, (2, 200))
        assert {r.p for r in rows} >= {9, 100, 1000}
        assert all(r.method == "exact" and r.std_error is None for r in rows)
        by_key = {(r.metric, r.p): r.value for r in rows}
        for p in (100, 1000):
            assert by_key[("per-work(200)", p)] == expected_decrease_ds(p, 1000) / (p // 100)

    @pytest.mark.parametrize(
        "d, cores, error, message",
        [
            (16.5, (2,), InvalidDimensionError, "dimension must be a positive integer, got 16.5"),
            (16, (2.5,), ValueError, "core count must be a positive integer, got 2.5"),
            (16, (4, True), ValueError, "core count must be a positive integer, got True"),
        ],
    )
    def test_non_integer_inputs_are_named(self, d, cores, error, message):
        with pytest.raises(error, match=re.escape(message)):
            run_parallel_sweep("ds", d, cores)

    @pytest.mark.parametrize("cores", [0, -1, 2.5, True])
    def test_a_bad_count_is_refused_as_rounds_refuses_it(self, cores):
        with pytest.raises(ValueError) as by_rounds:
            Variant.named("ds").rounds(2, cores)
        with pytest.raises(ValueError) as by_sweep:
            run_parallel_sweep("ds", 64, (2, cores))
        assert type(by_sweep.value) is type(by_rounds.value) is DomainError
        assert str(by_sweep.value) == str(by_rounds.value)

    def test_repeated_core_count_is_refused(self, tmp_path, capsys):
        # A repeated core count would emit each of its rows twice.
        with pytest.raises(ValueError, match=re.escape("got (2, 2)")):
            run_parallel_sweep("ds", 64, (2, 2))
        out = tmp_path / "out"
        assert main(["figure", "parallel-sweep", "--cores-model", "2,2", "--out", str(out)]) == 2
        assert "(2, 2)" in capsys.readouterr().err
        assert not out.exists()

    def test_core_counts_are_read_once(self):
        assert run_parallel_sweep("ds", 64, iter((2, 4))) == run_parallel_sweep("ds", 64, (2, 4))
        with pytest.raises(ValueError, match="core counts must name at least one value, got none"):
            run_parallel_sweep("ds", 64, ())
        # A bad count is named before a repeat is, and an iterator as the tuple read.
        with pytest.raises(DomainError, match="core count must be a positive integer, got 0"):
            run_parallel_sweep("ds", 64, iter((0, 0)))
        with pytest.raises(ValueError, match=re.escape("must not repeat a value, got (2, 2)")):
            run_parallel_sweep("ds", 64, iter((2, 2)))

    @pytest.mark.parametrize("d", [0, -3])
    def test_non_positive_dimension_is_named(self, d):
        # A dimension below 1 is the dimension's fault, not the core count's.
        message = f"dimension must be a positive integer, got {d}"
        with pytest.raises(InvalidDimensionError, match=message):
            run_parallel_sweep("mb", d, (2,))

    def test_deterministic(self):
        a = run_parallel_sweep("ds", 32, (4,))
        b = run_parallel_sweep("ds", 32, (4,))
        assert to_csv(ResultRow, a[0]) == to_csv(ResultRow, b[0])


class TestObjectives:
    def test_linear_draws_unit_gradient(self):
        obj, x0 = make_objective("linear-random-g", 12, RngStream(4))
        assert np.all(x0 == 0.0)
        e = np.zeros(12)
        slopes = []
        for i in range(12):
            e[:] = 0.0
            e[i] = 1.0
            slopes.append(obj(e))
        assert np.linalg.norm(slopes) == pytest.approx(1.0, abs=1e-12)

    def test_sphere_and_rosenbrock_values(self):
        obj, x0 = make_objective("sphere-quadratic", 5, RngStream(0))
        assert obj(x0) == pytest.approx(2.5)
        obj, x0 = make_objective("rosenbrock", 4, RngStream(0))
        assert math.isfinite(obj(x0))
        assert obj(np.ones(4)) == 0.0

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_objective("mystery", 3, RngStream(0))

    @pytest.mark.parametrize("d", [0, 2.5, True, "3"])
    def test_refuses_a_dimension_that_is_not_a_positive_integer(self, d):
        with pytest.raises(ValueError, match=f"dimension must be a positive integer, got {d!r}"):
            make_objective("sphere-quadratic", d, RngStream(0))

    def test_rosenbrock_needs_two_coordinates(self, tmp_path, capsys):
        # At d = 1 the sum over adjacent pairs is empty: the constant 0.
        with pytest.raises(InvalidDimensionError, match="rosenbrock needs dimension d >= 2, got 1"):
            make_objective("rosenbrock", 1, RngStream(0))
        obj, _ = make_objective("rosenbrock", 2, RngStream(0))
        assert obj(np.zeros(2)) == 1.0
        out = tmp_path / "trace.csv"
        args = ["optimize", "--function", "rosenbrock", "--d", "1", "--p", "1",
                "--budget", "10", "--out", str(out)]
        assert main(args) == 2
        assert "rosenbrock needs dimension d >= 2, got 1" in capsys.readouterr().err
        assert not out.exists()

    def test_optimizer_experiment_trace(self):
        config = DriverConfig(p=1, max_evaluations=60, iteration_kind="ds-complete")
        trace, objective = run_optimizer_experiment("linear-random-g", 25, config, seed=9)
        best = trace.best_values()
        assert np.all(np.diff(best) < 0.0)
        text = to_csv(TraceRecord, trace.records)
        lines = text.splitlines()
        assert lines[0] == "iteration,eval_count,best_value,step_size"
        assert len(lines) == len(trace.records) + 1

    def test_optimizer_experiment_reproducible(self):
        config = DriverConfig(p=2, max_evaluations=80, iteration_kind="mb")
        a, _ = run_optimizer_experiment("rosenbrock", 6, config, seed=3)
        b, _ = run_optimizer_experiment("rosenbrock", 6, config, seed=3)
        assert to_csv(TraceRecord, a.records) == to_csv(TraceRecord, b.records)

    def test_sphere_smoke_reaches_target(self):
        config = DriverConfig(p=2, max_evaluations=2000, iteration_kind="ds-complete")
        trace, _ = run_optimizer_experiment("sphere-quadratic", 20, config, seed=0)
        assert trace.final.best_value < 0.01 * trace.records[0].best_value


class TestVerifyRunner:
    def test_writes_deterministic_gate_csv(self, tmp_path):
        results, code = run_verify(seed=0, n_sims=400, out_dir=tmp_path / "a")
        assert (tmp_path / "a" / "verify_manifest.json").exists()
        run_verify(seed=0, n_sims=400, out_dir=tmp_path / "b")
        for name in ("verify_gates.csv", "verify_checks.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        text = to_csv(GateResult, results)
        assert text.splitlines()[0] == "criterion,name,passed,detail"
        checks = [c for r in results for c in r.checks]
        assert (tmp_path / "a" / "verify_checks.csv").read_text() == to_csv(Check, checks)
        manifest = json.loads((tmp_path / "a" / "verify_manifest.json").read_text())
        assert manifest["seed"] == 0 and manifest["n_sims"] == 400

    def test_the_checks_file_counts_each_kind_per_gate(self, tmp_path):
        # The suite's 3-sigma cells, two-sided: 16/24/2/8/1 in gates 1/2/4/8/10,
        # and gate 5's one-sided cells.
        run_verify(seed=0, n_sims=400, out_dir=tmp_path)
        lines = (tmp_path / "verify_checks.csv").read_text().splitlines()
        assert lines[0] == "gate,cell,statistic,value,bound,kind"
        counts = {}
        for line in lines[1:]:
            gate, *_, kind = line.split(",")
            counts[kind, int(gate)] = counts.get((kind, int(gate)), 0) + 1
        sigma = {g: n for (kind, g), n in counts.items() if kind == "3-sigma"}
        assert sigma == {1: 16, 2: 24, 4: 2, 8: 8, 10: 1}
        assert sum(sigma.values()) == 51
        assert {g: n for (kind, g), n in counts.items() if kind == "one-sided"} == {5: 10}
        # Every gate has checks, and an MC cell with zero SE (mb at p = d) is exact.
        assert {g for _, g in counts} == set(range(1, 11))
        assert counts["exact", 2] == len(D_GRID)

    def test_manifest_records_gate_seconds(self, tmp_path):
        start = time.perf_counter()
        results, _ = run_verify(seed=0, n_sims=400, out_dir=tmp_path)
        wall = time.perf_counter() - start
        manifest = json.loads((tmp_path / "verify_manifest.json").read_text())
        seconds = manifest["gate_seconds"]
        assert sorted(seconds) == sorted(r.name for r in results)
        assert all(s > 0.0 for s in seconds.values())
        assert sum(seconds.values()) <= wall
        # Timings stay out of the byte-stable CSV.
        assert (tmp_path / "verify_gates.csv").read_text() == to_csv(GateResult, results)


class TestGateDraws:
    """Gates 1, 2 and 8 score each reduced cell set as a figure does: one
    ``estimates`` call, so one draw spans every d of the set."""

    def test_mb_gate_scores_the_mb_vary_d_figure_rows(self):
        rows = run_named_figure(default_figure_spec("mb-vary-d", n_sims=300, seed=5))
        exact = {(r.p, r.d): r.value for r in rows if r.method == "exact"}
        worst, worst_cell = 0.0, None
        for r in rows:
            if r.method == "mc" and r.p != r.d:
                z = abs(r.value - exact[r.p, r.d]) / r.std_error
                if z > worst:
                    worst, worst_cell = z, f"(p={r.p}; d={r.d})"
        gate = gate_mb_closed_form(n_sims=300, seed=5)
        top = max((c for c in gate.checks if c.statistic == "|z|"), key=lambda c: c.value)
        assert (top.value, top.cell, top.kind) == (worst, worst_cell, "3-sigma")
        assert gate.detail == (
            f"max |z| = {format(worst, '.17g')} at {worst_cell} (gate 3); "
            "max |mc - exact| = 0 at (p=8; d=8) (gate 0)"
        )
        # The p = d cells have zero SE and must equal the exact value, 1.
        assert [c.cell for c in gate.checks if c.kind == "exact"] == [
            f"(p={d}; d={d})" for d in D_GRID
        ]

    def test_reduced_blocks_span_dimensions_and_read_below_the_head(self, monkeypatch):
        calls = []
        for name in ("_polling_scores", "_model_scores"):
            scores = getattr(montecarlo, name)

            def spy(gen, cells, out, name=name, scores=scores):
                calls.append((name, cells))
                return scores(gen, cells, out)

            monkeypatch.setattr(montecarlo, name, spy)
        for gate in (gate_ds_closed_form, gate_mb_closed_form, gate_basis_invariance):
            assert gate(n_sims=100, seed=0).passed
        assert any(len({d for _, d in cells}) > 1 for _, cells in calls)
        # A d below the head width max(p) is read off the head's columns.
        assert any(
            name == "_polling_scores" and min(d for _, d in cells) < max(p for p, _ in cells)
            for name, cells in calls
        )


class TestBasisInvarianceGate:
    def test_draws_each_dimension_once(self, monkeypatch):
        # Both variants at every p of a d are scored from one full-basis draw per d.
        drawn = {}
        scores = montecarlo._full_basis_scores

        def spy(gen, cells, out):
            drawn[cells] = drawn.get(cells, 0) + out.shape[1]
            return scores(gen, cells, out)

        monkeypatch.setattr(montecarlo, "_full_basis_scores", spy)
        gate = gate_basis_invariance(n_sims=300, seed=0)
        assert gate.criterion == 8
        assert drawn == {((1, 4), 16): 300, ((8, 32), 64): 300}


class TestChecks:
    """A gate is its list of ``Check`` records: one pass rule, one detail rule."""

    @pytest.mark.parametrize("kind, passes", [("3-sigma", True), ("exact", True),
                                              ("one-sided", False)])
    def test_a_value_at_the_bound(self, kind, passes):
        assert Check(1, "(p=1; d=8)", "|z|", 3.0, 3.0, kind).passed is passes

    @pytest.mark.parametrize("kind", ["3-sigma", "exact", "one-sided"])
    def test_a_nan_value_fails_every_kind(self, kind):
        assert not Check(1, "(p=1; d=8)", "|z|", math.nan, 3.0, kind).passed

    def test_an_unknown_kind_is_refused(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            Check(1, "(p=1; d=8)", "|z|", 1.0, 3.0, "two-sided")

    def test_a_zero_standard_error_gives_zero_or_infinite_z(self):
        assert experiments._z(0.0, 0.0) == 0.0
        assert experiments._z(0.5, 0.0) == math.inf
        assert experiments._z(-0.5, 0.0) == -math.inf
        assert experiments._z(1.0, 4.0) == 0.25
        assert math.isnan(experiments._z(math.nan, 0.0))

    def test_detail_names_each_statistics_first_worst_cell_in_first_seen_order(self):
        checks = [
            Check(5, "a", "paired z", 7.0, 3.0, "one-sided"),
            Check(5, "b", "gap", 0.5, 1.0, "exact"),
            Check(5, "c", "paired z", 4.0, 3.0, "one-sided"),
            Check(5, "d", "gap", 0.75, 1.0, "exact"),
            Check(5, "e", "paired z", 4.0, 3.0, "one-sided"),
            Check(5, "f", "gap", 0.75, 1.0, "exact"),
        ]
        gate = experiments._gate(5, "name", checks)
        assert gate.passed and gate.checks == tuple(checks)
        assert gate.detail == "min paired z = 4 at c (gate > 3); max gap = 0.75 at d (gate 1)"
        nan = Check(5, "g", "gap", math.nan, 1.0, "exact")
        gate = experiments._gate(5, "name", checks + [nan])
        assert not gate.passed
        assert gate.detail.endswith("max gap = nan at g (gate 1)")

    def test_a_tampered_constant_fails_its_gate_by_name(self, monkeypatch):
        assert gate_quadrature_constants().passed
        monkeypatch.setattr(experiments, "DS_RATIO_P3", 0.5)
        gate = gate_quadrature_constants()
        assert not gate.passed
        failed = {c.statistic for c in gate.checks if not c.passed}
        assert failed == {"|ratio3 - 0.5|"}
        assert "max |ratio3 - 0.5| = " in gate.detail
