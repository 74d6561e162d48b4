"""Verification-report, sweep, and randomized join-map tests."""

import hashlib
import json
import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from fanspectra import quotient, verify
from fanspectra.closed_forms import fan_distance_laplacian_as_stated, fan_laplacian_spectrum
from fanspectra.eigen import Spectrum, group_multiplicities, symmetric_eigenvalues
from fanspectra.graphs import generalized_fan
from fanspectra.matrices import laplacian_matrix
from fanspectra.verify import (
    CASE_KINDS,
    CASES,
    FAMILIES,
    SpectrumSizeMismatch,
    UnsupportedCombination,
    VerificationReport,
    _contained,
    closed_form,
    compare_spectra,
    random_graph,
    reports_to_json,
    sweep,
    verify_case,
    verify_random_joins,
)


class TestCompareSpectra:
    def test_identical_multisets(self):
        assert compare_spectra([1.0, 2.0, 2.0], [2.0, 1.0, 2.0]) == 0.0

    def test_empty(self):
        assert compare_spectra([], []) == 0.0

    def test_closed_form_against_oracle(self):
        vals = symmetric_eigenvalues(laplacian_matrix(generalized_fan(3, 4)))
        assert compare_spectra(fan_laplacian_spectrum(3, 4), vals) < 1e-8

    def test_cardinality_mismatch_is_fatal(self):
        vals = symmetric_eigenvalues(laplacian_matrix(generalized_fan(3, 4)))
        with pytest.raises(SpectrumSizeMismatch):
            compare_spectra(fan_distance_laplacian_as_stated(3, 4), vals)

    # max() skips a NaN that is not first: [0, nan] against [0, 0] would read as identical
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_non_finite_values_are_rejected(self, bad, position):
        values = [0.0, 1.0, 2.0]
        values[position] = bad
        for a, b in ((values, [0.0, 1.0, 2.0]), ([0.0, 1.0, 2.0], values)):
            with pytest.raises(ValueError, match="^values must be finite$"):
                compare_spectra(a, b)


class TestContainment:
    FULL = np.array([0.0, 1.0, 1.0, 3.0])

    @pytest.mark.parametrize("gap, contained", [(0.0, True), (0.25, True), (0.5, False)])
    def test_a_quotient_value_must_lie_within_tol_of_the_full_spectrum(self, gap, contained):
        # 0.25 = tol exactly (every value here is a dyadic fraction) is in, 2 * tol is out
        for value in (1.0 + gap, 3.0 + gap, 0.0 - gap):
            quotient = Spectrum(((0.0, 1), (value, 2)))
            assert _contained(quotient, self.FULL, tol=0.25) is contained

    def test_the_nearest_full_values_decide_as_every_full_value_does(self):
        # the two values either side of where a quotient value sorts in, against the
        # minimum distance to every value; dyadic values make many distances exactly tol
        rng = np.random.default_rng(7)
        for _ in range(300):
            full = np.sort(rng.integers(-8, 9, int(rng.integers(1, 9))) / 4.0)
            values = rng.integers(-10, 11, int(rng.integers(1, 4))) / 8.0
            quotient_spectrum = Spectrum(tuple((v, 1) for v in np.unique(values).tolist()))
            expected = bool(np.abs(np.subtract.outer(values, full)).min(axis=1).max() <= 0.25)
            assert _contained(quotient_spectrum, full, tol=0.25) is expected

    def test_an_empty_quotient_is_contained(self):
        assert _contained(Spectrum(()), self.FULL, tol=0.25) is True

    def test_a_nan_is_not_contained(self):
        assert _contained(Spectrum(((math.nan, 1),)), self.FULL, tol=0.25) is False


class TestVerifyCase:
    def test_fan_laplacian_passes(self):
        report = verify_case("fan", 3, 4, "laplacian")
        assert report.passed
        assert report.max_abs_deviation < 1e-8
        assert report.trace_residual < 1e-8
        assert report.psd_ok
        assert report.quotient_containment_ok
        assert report.case_tag == "fan-laplacian"

    def test_nc_distance_laplacian_2_2(self):
        report = verify_case("nc", 2, 2, "distance-laplacian")
        assert report.passed
        expected = sorted([0.0, 12.0, 12.0, 16 - 2 * 2**0.5, 14.0, 14.0, 16.0, 16 + 2 * 2**0.5])
        np.testing.assert_allclose(sorted(report.closed_form.expanded()), expected, atol=1e-9)
        assert report.errata_flags

    @pytest.mark.parametrize("family, m, n", [("fan", 3, 4), ("nc", 3, 2)])
    @pytest.mark.parametrize("kind", ["laplacian", "distance-laplacian"])
    def test_a_case_runs_every_stage_once(self, monkeypatch, family, m, n, kind):
        # each public call a case makes, counted at the binding it goes through, so that
        # no stage of the check can drop out unseen; two solves: the matrix and its quotient
        graph = {"fan": "generalized_fan", "nc": "nc_graph"}[family]
        form = f"{family}_{kind.replace('-', '_')}_spectrum"
        stages = {
            (verify, graph): 1,
            (verify, f"{family}_partition"): 1,
            (verify, "build_matrix"): 1,
            (verify, form): 1,
            (verify, "symmetric_eigenvalues"): 1,
            (quotient, "symmetric_eigenvalues"): 1,
            (verify, "group_multiplicities"): 1,
            (quotient, "group_multiplicities"): 1,
            (verify, "compare_spectra"): 1,
            (verify, "quotient_eigenvalues"): 1,
            (quotient, "is_equitable"): 1,
        }
        calls = dict.fromkeys(stages, 0)

        def counted(key, function):
            def call(*args, **kwargs):
                calls[key] += 1
                return function(*args, **kwargs)

            return call

        for module, name in stages:
            monkeypatch.setattr(module, name, counted((module, name), getattr(module, name)))
        report = verify_case(family, m, n, kind)
        assert report.passed and calls == stages
        assert calls[verify, "symmetric_eigenvalues"] + calls[quotient, "symmetric_eigenvalues"] == 2

    def test_an_nc_case_peaks_below_three_matrices(self):
        # order 48; a symmetry check that held two V x V temporaries took it to 59,642 B
        verify_case("nc", 12, 12, "laplacian")  # warm-up: builds and caches the round plans
        tracemalloc.start()
        try:
            verify_case("nc", 12, 12, "laplacian")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 48 * 48 * 8

    def test_unknown_family_or_kind(self):
        with pytest.raises(ValueError):
            verify_case("wheel", 2, 2, "laplacian")
        with pytest.raises(ValueError):
            verify_case("fan", 2, 2, "adjacency")

    def test_impossible_tolerance_fails_cleanly(self):
        report = verify_case("fan", 2, 2, "laplacian", tol=1e-300)
        assert not report.passed

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            verify_case("fan", 2, 2, "laplacian", tol=tol)
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            sweep((2, 3), (2, 3), tol=tol)

    @pytest.mark.parametrize("tol", [True, np.True_, False])
    def test_a_bool_tolerance_is_rejected(self, tol):
        # True would judge the case at a tolerance of 1.0
        with pytest.raises(ValueError, match="^tol must be a number, got "):
            verify_case("fan", 2, 3, "laplacian", tol=tol)
        with pytest.raises(ValueError, match="^tol must be a number, got "):
            sweep((2, 3), (2, 3), tol=tol)

    @pytest.mark.parametrize("tol", ["1e-9", None, 1e-9 + 0j, np.complex128(1e-9), np.array([1e-9])])
    def test_a_tolerance_that_is_not_a_number_is_rejected(self, tol):
        # once a TypeError from math.isfinite, or a ComplexWarning for a numpy complex
        with pytest.raises(ValueError, match="^tol must be a number, got "):
            verify_case("fan", 2, 3, "laplacian", tol=tol)

    @pytest.mark.parametrize("tol", [1e-8, np.float64(1e-8), np.float32(1e-8), np.array(1e-8), 1])
    def test_a_real_scalar_or_0_d_tolerance_is_accepted(self, tol):
        assert verify_case("fan", 2, 3, "laplacian", tol=tol).passed

    @pytest.mark.parametrize("huge", [10**400, -(10**400)])
    def test_an_int_beyond_every_double_is_not_a_finite_tolerance(self, huge):
        # it reads as infinite: once an OverflowError from math.isfinite
        matrix = laplacian_matrix(generalized_fan(2, 3))
        calls = {
            "convergence_tol": [lambda tol: symmetric_eigenvalues(matrix, convergence_tol=tol)],
            "grouping_tol": [
                lambda tol: group_multiplicities([1.0, 2.0], grouping_tol=tol),
                lambda tol: quotient.quotient_eigenvalues(matrix, quotient.fan_partition(2, 3), grouping_tol=tol),
            ],
            "tol": [lambda tol: verify_case("fan", 2, 3, "laplacian", tol=tol), lambda tol: sweep((2, 3), (2, 3), tol=tol)],
        }
        for name, checks in calls.items():
            for call in checks:
                with pytest.raises(ValueError, match=f"^{name} must be finite and "):
                    call(huge)


class TestCaseTable:
    def test_case_kinds_order(self):
        assert CASE_KINDS == (
            "fan-laplacian",
            "nc-laplacian",
            "fan-distance-laplacian",
            "nc-distance-laplacian",
        )
        assert all(CASES[case] == tuple(case.split("-", 1)) for case in CASE_KINDS)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_rows_agree_with_their_builders(self, family):
        row = FAMILIES[family]
        least = row.min_param
        graph = row.graph(least, least)
        assert sum(row.partition(least, least).block_sizes) == graph.vertex_count
        for kind, form in row.closed_forms.items():
            assert closed_form(family, kind) is form
            assert form(least, least + 1).order == row.graph(least, least + 1).vertex_count
            with pytest.raises(ValueError):
                form(least - 1, least)
        with pytest.raises(ValueError):
            row.graph(least, least - 1)

    def test_missing_case_is_an_unsupported_combination(self):
        for family, kind in (("fan", "adjacency"), ("wheel", "laplacian")):
            with pytest.raises(UnsupportedCombination, match="no closed form"):
                closed_form(family, kind)


class TestSweep:
    def test_cell_count_for_one_kind(self):
        reports = sweep((2, 3), (2, 3), kinds=("fan-distance-laplacian",))
        assert len(reports) == 4

    def test_nc_skipped_below_domain(self):
        reports = sweep((1, 2), (2, 2), kinds=("fan-laplacian", "nc-laplacian"))
        tags = [(r.family, r.m, r.n) for r in reports]
        assert ("fan", 1, 2) in tags
        assert ("nc", 1, 2) not in tags
        assert ("nc", 2, 2) in tags

    def test_single_hub_rows_reproduce_the_specialized_forms(self):
        reports = sweep((1, 1), (2, 6), kinds=("fan-laplacian", "fan-distance-laplacian"))
        assert reports and all(r.passed for r in reports)

    def test_deterministic_ordering(self):
        reports = sweep((2, 3), (2, 3), kinds=CASE_KINDS[:2])
        keys = [(r.m, r.n, r.case_tag) for r in reports]
        assert keys == sorted(keys, key=lambda k: (k[0], k[1], CASE_KINDS.index(k[2])))

    def test_small_grid_all_kinds_pass(self):
        reports = sweep((2, 4), (2, 4))
        assert len(reports) == 9 * 4
        assert all(r.passed for r in reports)

    def test_range_caps(self):
        with pytest.raises(ValueError):
            sweep((0, 3), (2, 3))
        with pytest.raises(ValueError):
            sweep((2, 3), (2, 500))

    @pytest.mark.parametrize("size", [2.5, "3", True, np.True_])
    def test_range_bounds_must_be_integers(self, size):
        # once a TypeError from range(), raised after the bounds check had passed
        with pytest.raises(ValueError, match=f"^m_high must be an integer, got {size!r}$"):
            sweep((2, size), (2, 2))
        with pytest.raises(ValueError, match=f"^n_low must be an integer, got {size!r}$"):
            sweep((2, 2), (size, 3))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            sweep((2, 3), (2, 3), kinds=("fan-adjacency",))

    def test_a_grid_outside_every_requested_domain_is_rejected(self):
        # m = 1 is below nc's domain, so the request holds no case at all
        with pytest.raises(ValueError, match=r"no requested case .*nc needs m, n >= 2"):
            sweep((1, 1), (1, 5), kinds=("nc-laplacian",))

    def test_a_bare_string_of_kinds_is_rejected_whole(self):
        # read one character at a time, it would fail as "unknown case kind 'f'"
        message = "^kinds must be a sequence of case kinds, not the string 'fan-laplacian'$"
        with pytest.raises(ValueError, match=message):
            sweep((2, 3), (2, 3), kinds="fan-laplacian")

    def test_an_empty_kinds_request_is_rejected(self):
        for m_range in ((2, 3), (1, 1)):
            with pytest.raises(ValueError, match=r"^no case kind requested$"):
                sweep(m_range, (2, 3), kinds=())


class TestSerialization:
    def test_json_holds_every_field_of_every_report(self):
        reports = sweep((2, 2), (2, 3), kinds=("nc-distance-laplacian",))
        records = json.loads(reports_to_json(reports))
        assert len(records) == len(reports) == 2
        for record, report in zip(records, reports):
            assert list(record) == [f.name for f in fields(VerificationReport)]
            for key in ("closed_form", "numeric"):
                assert record[key]["pairs"] == [list(pair) for pair in getattr(report, key).pairs]
            assert record["errata_flags"] == list(report.errata_flags)
            assert record["max_abs_deviation"] == report.max_abs_deviation
            assert record["passed"] is True

    def test_the_2_6_sweep_json_is_pinned(self):
        # every bit of every report over the 2..6 grid: a change to the bits of the
        # solver, of the grouping or of a closed form must re-pin this
        text = reports_to_json(sweep((2, 6), (2, 6)))
        assert len(text) == 149_374
        assert hashlib.sha256(text.encode()).hexdigest().startswith("49a6f4d2f3773ab0")

    def test_the_2_12_sweep_json_is_pinned(self):
        # the default verify grid: all 484 reports, each spectrum written by the one record rule
        text = reports_to_json(sweep((2, 12), (2, 12)))
        assert len(text) == 927_900
        assert hashlib.sha256(text.encode()).hexdigest().startswith("d821ee6362c841b4")


class TestRandomJoins:
    def test_seeded_graphs_are_reproducible(self):
        rng1 = np.random.default_rng(42)
        rng2 = np.random.default_rng(42)
        assert random_graph(6, rng1) == random_graph(6, rng2)

    def test_join_maps_hold_on_seeded_pairs(self):
        checks = verify_random_joins(pair_count=25, seed=123)
        assert len(checks) == 25
        assert all(c.ok for c in checks)
        assert all(1 <= c.n1 <= 8 and 1 <= c.n2 <= 8 for c in checks)

    def test_checks_record_their_seeds(self):
        checks = verify_random_joins(pair_count=3, seed=999)
        assert [c.seed for c in checks] == [999, 1000, 1001]

    @pytest.mark.parametrize("pair_count", [0, -3, 2.0, "2", None, True, np.True_])
    def test_pair_count_must_be_an_integer_of_at_least_one(self, pair_count):
        # zero pairs would make all(c.ok ...) pass vacuously
        with pytest.raises(ValueError, match="^pair_count must be an integer >= 1$"):
            verify_random_joins(pair_count=pair_count)

    @pytest.mark.parametrize(
        "seed, message",
        [(2.5, "seed must be an integer, got 2.5"), ("3", "seed must be an integer, got '3'"),
         (None, "seed must be an integer, got None"), (-1, "verify_random_joins requires seed >= 0")],
    )
    def test_seed_must_be_a_non_negative_integer(self, seed, message):
        # once a TypeError from numpy or from seed + k, or numpy's own negative-seed message
        with pytest.raises(ValueError, match=f"^{message}$"):
            verify_random_joins(pair_count=1, seed=seed)

    def test_default_checks_are_pinned(self):
        # every seed keeps its two graphs, and each deviation keeps every bit
        checks = verify_random_joins()
        record = repr([
            (c.seed, c.n1, c.n2, c.laplacian_deviation.hex(), c.distance_laplacian_deviation.hex(), c.ok)
            for c in checks
        ])
        assert sum(c.ok for c in checks) == 100
        assert hashlib.sha256(record.encode()).hexdigest().startswith("f7517da88919d9c0")

    def test_numpy_integer_pair_count(self):
        assert [c.seed for c in verify_random_joins(pair_count=np.int64(2), seed=5)] == [5, 6]
