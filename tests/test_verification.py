"""Verification-report, sweep, and randomized join-map tests."""

import json
import math

import numpy as np
import pytest

from fanspectra.closed_forms import fan_distance_laplacian_as_stated, fan_laplacian_spectrum
from fanspectra.eigen import symmetric_eigenvalues
from fanspectra.graphs import generalized_fan
from fanspectra.matrices import laplacian_matrix
from fanspectra.verify import (
    CASE_KINDS,
    CASES,
    FAMILIES,
    SpectrumSizeMismatch,
    UnsupportedCombination,
    closed_form,
    compare_spectra,
    random_graph,
    report_from_dict,
    report_to_dict,
    reports_from_json,
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
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            verify_random_joins(pair_count=1, tol=tol)


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
        row.partition(least, least).validate_for(graph.vertex_count)
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

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            sweep((2, 3), (2, 3), kinds=("fan-adjacency",))

    def test_a_grid_outside_every_requested_domain_is_rejected(self):
        # m = 1 is below nc's domain, so the request holds no case at all
        with pytest.raises(ValueError, match=r"no requested case .*nc needs m, n >= 2"):
            sweep((1, 1), (1, 5), kinds=("nc-laplacian",))

    def test_an_empty_kinds_request_is_rejected(self):
        for m_range in ((2, 3), (1, 1)):
            with pytest.raises(ValueError, match=r"^no case kind requested$"):
                sweep(m_range, (2, 3), kinds=())


class TestSerialization:
    def test_round_trip(self):
        report = verify_case("nc", 2, 3, "laplacian")
        assert report_from_dict(report_to_dict(report)) == report

    def test_json_round_trip(self):
        reports = sweep((2, 2), (2, 3), kinds=("nc-distance-laplacian",))
        text = reports_to_json(reports)
        assert reports_from_json(text) == reports
        parsed = json.loads(text)
        assert parsed[0]["passed"] is True


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
