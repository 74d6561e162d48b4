"""Closed-form spectrum tests with hand-frozen expected multisets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stated
from fanspectra.closed_forms import (
    fan_distance_laplacian_as_stated,
    fan_distance_laplacian_spectrum,
    fan_laplacian_spectrum,
    join_distance_laplacian_spectrum,
    join_laplacian_spectrum,
    nc_distance_laplacian_spectrum,
    nc_laplacian_spectrum,
    path_laplacian_spectrum,
)
from fanspectra.eigen import symmetric_eigenvalues
from fanspectra.graphs import generalized_fan, nc_graph
from fanspectra.matrices import distance_laplacian, laplacian_matrix

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)


def assert_multiset(spectrum, expected, atol=1e-12):
    np.testing.assert_allclose(sorted(spectrum.expanded()), sorted(expected), atol=atol)


class TestPathSpectrum:
    def test_two_vertices(self):
        assert_multiset(path_laplacian_spectrum(2), [0.0, 2.0])

    def test_four_vertices(self):
        assert_multiset(path_laplacian_spectrum(4), [0.0, 2 - SQRT2, 2.0, 2 + SQRT2])

    @given(n=st.integers(1, 40))
    def test_sum_is_twice_edge_count(self, n):
        assert math.isclose(path_laplacian_spectrum(n).total(), 2.0 * (n - 1), abs_tol=1e-9)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            path_laplacian_spectrum(0)


class TestFanLaplacian:
    def test_single_hub_four_path(self):
        assert_multiset(fan_laplacian_spectrum(1, 4), [0.0, 3 - SQRT2, 3.0, 3 + SQRT2, 5.0])

    def test_three_hubs_four_path(self):
        assert_multiset(
            fan_laplacian_spectrum(3, 4), [0.0, 5 - SQRT2, 4.0, 4.0, 5.0, 5 + SQRT2, 7.0]
        )

    def test_two_two(self):
        assert_multiset(fan_laplacian_spectrum(2, 2), [0.0, 2.0, 4.0, 4.0])

    @given(m=st.integers(1, 10), n=st.integers(1, 10))
    def test_size_and_trace(self, m, n):
        spectrum = fan_laplacian_spectrum(m, n)
        assert spectrum.order == m + n
        trace = 2.0 * generalized_fan(m, n).edge_count
        assert math.isclose(spectrum.total(), trace, abs_tol=1e-9)

    @given(m=st.integers(1, 6), n=st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_matches_oracle(self, m, n):
        vals = symmetric_eigenvalues(laplacian_matrix(generalized_fan(m, n)))
        assert_multiset(fan_laplacian_spectrum(m, n), vals, atol=1e-9)


class TestJoinMaps:
    def test_two_single_vertices_make_an_edge(self):
        k1 = [0.0]
        assert_multiset(join_laplacian_spectrum(k1, 1, k1, 1), [0.0, 2.0])
        assert_multiset(join_distance_laplacian_spectrum(k1, 1, k1, 1), [0.0, 2.0])

    def test_fan_is_a_join_of_nulls_and_a_path(self):
        m, n = 3, 4
        nulls = [0.0] * m
        path = path_laplacian_spectrum(n)
        joined = join_laplacian_spectrum(nulls, m, path, n)
        assert_multiset(joined, fan_laplacian_spectrum(m, n).expanded())
        joined_dl = join_distance_laplacian_spectrum(nulls, m, path, n)
        assert_multiset(joined_dl, fan_distance_laplacian_spectrum(m, n).expanded())

    def test_output_size(self):
        out = join_laplacian_spectrum([0.0, 1.0, 3.0], 3, [0.0, 2.0], 2)
        assert out.order == 5

    def test_spectrum_without_zero_is_rejected(self):
        with pytest.raises(ValueError):
            join_laplacian_spectrum([1.0, 2.0], 2, [0.0], 1)

    def test_wrong_cardinality_is_rejected(self):
        with pytest.raises(ValueError):
            join_laplacian_spectrum([0.0, 1.0], 3, [0.0], 1)


class TestNcLaplacian:
    def test_two_two(self):
        expected = [0.0, 3 - SQRT5, 2.0, 4.0, 4.0, 4.0, 4.0, 3 + SQRT5]
        spectrum = nc_laplacian_spectrum(2, 2)
        assert_multiset(spectrum, expected)
        assert math.isclose(spectrum.total(), 24.0, abs_tol=1e-9)

    def test_quadratic_pair_at_3_4(self):
        values = nc_laplacian_spectrum(3, 4).expanded()
        root = math.sqrt(57.0)
        for target in ((9 - root) / 2, (9 + root) / 2):
            assert min(abs(v - target) for v in values) < 1e-12

    @given(m=st.integers(2, 10), n=st.integers(2, 10))
    def test_size_and_trace(self, m, n):
        spectrum = nc_laplacian_spectrum(m, n)
        assert spectrum.order == 2 * (m + n)
        trace = 2.0 * nc_graph(m, n).edge_count
        assert math.isclose(spectrum.total(), trace, abs_tol=1e-9)

    @given(m=st.integers(2, 5), n=st.integers(2, 5))
    @settings(max_examples=16, deadline=None)
    def test_matches_oracle(self, m, n):
        vals = symmetric_eigenvalues(laplacian_matrix(nc_graph(m, n)))
        assert_multiset(nc_laplacian_spectrum(m, n), vals, atol=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            nc_laplacian_spectrum(1, 4)

    def test_quadratic_roots_satisfy_their_factor(self):
        for m in range(2, 13):
            for n in range(2, 13):
                values = nc_laplacian_spectrum(m, n).expanded()
                residuals = sorted(
                    abs(v * v - (m + n + 2) * v + 2 * m) for v in values
                )
                # the two closed-form roots sit at the bottom
                assert residuals[0] < 1e-10 and residuals[1] < 1e-10


class TestFanDistanceLaplacian:
    def test_three_hubs_four_path(self):
        expected = [0.0, 7.0, 9 - SQRT2, 9.0, 9 + SQRT2, 10.0, 10.0]
        spectrum = fan_distance_laplacian_spectrum(3, 4)
        assert_multiset(spectrum, expected)
        assert math.isclose(spectrum.total(), 54.0, abs_tol=1e-9)

    def test_triangle_case(self):
        assert_multiset(fan_distance_laplacian_spectrum(1, 2), [0.0, 3.0, 3.0])

    @given(m=st.integers(1, 10), n=st.integers(1, 10))
    def test_size(self, m, n):
        assert fan_distance_laplacian_spectrum(m, n).order == m + n

    @given(m=st.integers(1, 6), n=st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_matches_oracle(self, m, n):
        vals = symmetric_eigenvalues(distance_laplacian(generalized_fan(m, n)))
        assert_multiset(fan_distance_laplacian_spectrum(m, n), vals, atol=1e-9)

    def test_stated_multiset_is_oversized(self):
        for m, n in ((1, 3), (3, 4), (5, 2)):
            assert len(fan_distance_laplacian_as_stated(m, n)) == m + n + 1

    def test_erratum_is_recorded(self):
        assert fan_distance_laplacian_spectrum(2, 2).errata_notes


class TestNcDistanceLaplacian:
    def test_two_two(self):
        expected = [0.0, 12.0, 12.0, 16 - 2 * SQRT2, 14.0, 14.0, 16.0, 16 + 2 * SQRT2]
        spectrum = nc_distance_laplacian_spectrum(2, 2)
        assert_multiset(spectrum, expected)
        assert math.isclose(spectrum.total(), 100.0, abs_tol=1e-9)

    @given(m=st.integers(2, 10), n=st.integers(2, 10))
    def test_size_and_trace(self, m, n):
        spectrum = nc_distance_laplacian_spectrum(m, n)
        assert spectrum.order == 2 * (m + n)
        trace = float(np.trace(distance_laplacian(nc_graph(m, n))))
        assert math.isclose(spectrum.total(), trace, abs_tol=1e-8)

    @given(m=st.integers(2, 5), n=st.integers(2, 5))
    @settings(max_examples=16, deadline=None)
    def test_matches_oracle(self, m, n):
        vals = symmetric_eigenvalues(distance_laplacian(nc_graph(m, n)))
        assert_multiset(nc_distance_laplacian_spectrum(m, n), vals, atol=1e-9)

    def test_quartic_roots_satisfy_stated_polynomial(self):
        # the stated quartic is x (x - 3(n+m)) (x^2 - b x + c), and the quadratic's
        # roots are the closed form's b/2 +- sqrt(A)/2: b = 9(n+m) - 4 and b^2 - 4c = A
        for m, n in stated.GRID:
            a = 9 * n * n + 9 * m * m - 14 * n * m + 24 * n - 24 * m + 16
            b = 9 * (n + m) - 4
            c, remainder = divmod(b * b - a, 4)
            assert remainder == 0
            factored = np.polymul(np.polymul([1, 0], [1, -3 * (n + m)]), [1, -b, c])
            assert np.array_equal(factored, stated.distance_laplacian_quartic(m, n))


class TestQuotientForms:
    """The paper's stated quotients and quartics against the computed quotients, exactly."""

    def test_quotients_agree_with_block_averaging(self):
        for m, n in stated.GRID:
            laplacian, distance = stated.computed_quotients(m, n)
            assert np.array_equal(laplacian, stated.laplacian_quotient(m, n))
            assert np.array_equal(distance, stated.distance_laplacian_quotient(m, n))

    def test_laplacian_charpoly_factorization_is_exact(self):
        for m, n in stated.GRID:
            factored = np.polymul(np.polymul([1, 0], [1, -(m + n)]), [1, -(m + n + 2), 2 * m])
            assert np.array_equal(factored, stated.laplacian_quartic(m, n))

    def test_stated_quartics_are_the_quotient_charpolys(self):
        for m, n in stated.GRID:
            laplacian, distance = stated.computed_quotients(m, n)
            assert stated.charpoly(laplacian) == stated.laplacian_quartic(m, n)
            assert stated.charpoly(distance) == stated.distance_laplacian_quartic(m, n)

    def test_charpoly_is_exact_on_small_matrices(self):
        assert stated.charpoly([[2, 1], [1, 2]]) == (1, -4, 3)
        assert stated.charpoly(2 * np.eye(3)) == (1, -6, 12, -8)
        assert stated.charpoly([[0, 1, 0], [0, 0, 1], [6, -11, 6]]) == (1, -6, 11, -6)
