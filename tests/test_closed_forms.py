"""Closed-form spectrum tests with hand-frozen expected multisets."""

import inspect
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stated
from fanspectra import closed_forms
from fanspectra.closed_forms import (
    fan_distance_laplacian_as_stated,
    fan_distance_laplacian_spectrum,
    fan_laplacian_spectrum,
    join_distance_laplacian_spectrum,
    join_laplacian_spectrum,
    nc_distance_laplacian_spectrum,
    nc_laplacian_spectrum,
)
from fanspectra.closed_forms import (
    FAN_DISTANCE_LAPLACIAN_NOTE,
    NC_DISTANCE_LAPLACIAN_NOTE,
    NC_LAPLACIAN_NOTE,
    _spectrum,
)
from fanspectra.eigen import GROUPING_SCALE, group_multiplicities, symmetric_eigenvalues
from fanspectra.graphs import generalized_fan, nc_graph, path_graph
from fanspectra.matrices import distance_laplacian, laplacian_matrix
from fanspectra.verify import MAX_SWEEP_PARAM

JOIN_MAPS = [join_laplacian_spectrum, join_distance_laplacian_spectrum]
SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)


def assert_multiset(spectrum, expected, atol=1e-12):
    np.testing.assert_allclose(sorted(spectrum.expanded()), sorted(expected), atol=atol)


def path_values(n):
    """The n-vertex path's Laplacian eigenvalues 2 - 2 cos(pi j / n), j = 0..n-1, which the
    fan and nc forms take as their base."""
    return [2.0 - 2.0 * math.cos(math.pi * j / n) for j in range(n)]


class TestPathSpectrum:
    """The path's textbook spectrum, the base of the fan and nc forms, against the oracle."""

    def test_two_vertices(self):
        values = symmetric_eigenvalues(laplacian_matrix(path_graph(2)))
        np.testing.assert_allclose(values, [0.0, 2.0], atol=1e-12)

    def test_four_vertices(self):
        expected = [0.0, 2 - SQRT2, 2.0, 2 + SQRT2]
        np.testing.assert_allclose(path_values(4), expected, atol=1e-12)
        values = symmetric_eigenvalues(laplacian_matrix(path_graph(4)))
        np.testing.assert_allclose(values, expected, atol=1e-12)

    @given(n=st.integers(1, 40))
    @settings(deadline=None)
    def test_sum_is_twice_edge_count(self, n):
        assert math.isclose(sum(path_values(n)), 2.0 * (n - 1), abs_tol=1e-9)
        values = symmetric_eigenvalues(laplacian_matrix(path_graph(n)))
        np.testing.assert_allclose(values, path_values(n), atol=1e-12)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            path_graph(0)


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
        path = path_values(n)
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

    # a leading NaN once passed for the zero eigenvalue: [nan, 2.0] and [0.0] gave {0, 3, 3}
    @pytest.mark.parametrize("join_map", JOIN_MAPS)
    @pytest.mark.parametrize(
        "bad",
        [[math.nan, 2.0], [0.0, math.nan], [0.0, math.inf], [-math.inf, 0.0]],
        ids=["nan-first", "nan-last", "inf", "minus-inf"],
    )
    @pytest.mark.parametrize("as_array", [False, True], ids=["list", "ndarray"])
    @pytest.mark.parametrize("first", [True, False], ids=["first-part", "second-part"])
    def test_a_value_that_is_not_finite_is_rejected(self, join_map, bad, as_array, first):
        bad = np.array(bad) if as_array else bad
        args = (bad, 2, [0.0], 1) if first else ([0.0], 1, bad, 2)
        with pytest.raises(ValueError, match="^values must be finite$"):
            join_map(*args)

    # an empty part was once an IndexError, a negative size a cardinality message
    @pytest.mark.parametrize("join_map", JOIN_MAPS)
    @pytest.mark.parametrize(
        "args",
        [([], 0, [0.0], 1), ([0.0], 1, [], 0), ([0.0], -1, [0.0], 1), ([0.0], 1, [0.0], -2)],
        ids=["empty-first", "empty-second", "negative-first", "negative-second"],
    )
    def test_a_part_of_no_vertices_is_rejected(self, join_map, args):
        with pytest.raises(ValueError, match="^join spectrum requires n1 >= 1 and n2 >= 1$"):
            join_map(*args)


class TestSizesMustBeIntegers:
    # each was once a TypeError (or, for the join maps, silently accepted n1 = 2.0,
    # and True as 1)
    @pytest.mark.parametrize("size", [2.5, "3", True, np.True_])
    @pytest.mark.parametrize(
        "form, name",
        [
            (lambda s: fan_laplacian_spectrum(s, 3), "m"),
            (lambda s: fan_distance_laplacian_spectrum(3, s), "n"),
            (lambda s: fan_distance_laplacian_as_stated(2, s), "n"),
            (lambda s: nc_laplacian_spectrum(s, 3), "m"),
            (lambda s: nc_distance_laplacian_spectrum(2, s), "n"),
            (lambda s: join_laplacian_spectrum([0, 1.0], s, [0.0], 1), "n1"),
            (lambda s: join_distance_laplacian_spectrum([0.0], 1, [0, 1.0], s), "n2"),
        ],
    )
    def test_a_size_that_is_not_an_integer_is_rejected(self, form, name, size):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {size!r}$"):
            form(size)

    def test_a_whole_float_order_is_rejected_by_the_join_maps(self):
        for join_map in (join_laplacian_spectrum, join_distance_laplacian_spectrum):
            with pytest.raises(ValueError, match="^n1 must be an integer, got 2.0$"):
                join_map([0, 1.0], 2.0, [0.0], 1)

    def test_numpy_integer_sizes_are_accepted(self):
        m, n = np.int64(3), np.int32(4)
        assert nc_laplacian_spectrum(m, n) == nc_laplacian_spectrum(3, 4)
        assert fan_distance_laplacian_spectrum(m, n) == fan_distance_laplacian_spectrum(3, 4)
        assert join_laplacian_spectrum([0.0], np.int64(1), [0.0], 1).pairs == ((0.0, 1), (2.0, 1))

    @pytest.mark.parametrize("integer", [np.uint8, np.int8])
    @pytest.mark.parametrize(
        "form",
        [
            fan_laplacian_spectrum,
            fan_distance_laplacian_spectrum,
            fan_distance_laplacian_as_stated,
            nc_laplacian_spectrum,
            nc_distance_laplacian_spectrum,
        ],
    )
    def test_narrow_numpy_sizes_give_the_python_int_spectrum(self, form, integer):
        # m + n and the nc products once wrapped around: fan_laplacian_spectrum(uint8 200, uint8 100)
        # gave 44 for m + n = 300; sizes near the type's top keep every sum out of its range
        m, n = (200, 100) if integer is np.uint8 else (120, 100)
        assert form(integer(m), integer(n)) == form(m, n)

    @pytest.mark.parametrize("integer", [np.uint8, np.int8])
    def test_narrow_numpy_sizes_in_the_join_forms(self, integer):
        spec = path_values(100)
        for join_map in (join_laplacian_spectrum, join_distance_laplacian_spectrum):
            assert join_map(spec, integer(100), spec, integer(100)) == join_map(spec, 100, spec, 100)

    def test_the_domain_messages_are_unchanged(self):
        for form in (fan_laplacian_spectrum, fan_distance_laplacian_spectrum,
                     fan_distance_laplacian_as_stated):
            for m, n in [(0, 3), (3, 0)]:
                with pytest.raises(ValueError, match=r"^fan spectrum requires m >= 1 and n >= 1$"):
                    form(m, n)
        for form in (nc_laplacian_spectrum, nc_distance_laplacian_spectrum):
            for m, n in [(2, 1), (1, 2)]:
                with pytest.raises(ValueError, match=r"^pair-class spectrum requires m >= 2 and n >= 2$"):
                    form(m, n)


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

    @pytest.mark.parametrize("m, n", [(0, 0), (2, 0), (-2, 3)])
    @pytest.mark.parametrize(
        "form",
        [fan_laplacian_spectrum, fan_distance_laplacian_spectrum, fan_distance_laplacian_as_stated],
    )
    def test_fan_forms_share_one_domain(self, form, m, n):
        # the stated multiset once came back as [0.0, 0.0], [0.0, 2.0, 2.0] and five values
        with pytest.raises(ValueError, match=r"fan spectrum requires m >= 1 and n >= 1"):
            form(m, n)


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


# --- bit-for-bit pins ----------------------------------------------------------
# Each closed form written out term by term, with the arithmetic in the order the
# formulas state it, and grouped the package's way; the package must produce the
# same pairs with ==, not merely within a tolerance.


def _grouped(contributions):
    values = sorted(float(v) for v, k in contributions for _ in range(k))
    return group_multiplicities(values).pairs


def _path_value(n, j):
    return 2.0 - 2.0 * math.cos(math.pi * j / n)


def _roots(b, c):
    root = math.sqrt(b * b - 4.0 * c)
    return (b - root) / 2.0, (b + root) / 2.0


def _fan_laplacian(m, n):
    terms = [(0.0, 1), (float(m + n), 1), (float(n), m - 1)]
    return _grouped(terms + [(m + _path_value(n, j), 1) for j in range(1, n)])


def _fan_distance_laplacian(m, n):
    terms = [(0.0, 1), (float(m + n), 1), (float(n + 2 * m), m - 1)]
    return _grouped(terms + [(m + 2 * n - 2 + 2 * math.cos(math.pi * j / n), 1) for j in range(1, n)])


def _nc_laplacian(m, n):
    lo, hi = _roots(float(m + n + 2), 2.0 * m)
    terms = [(0.0, 1), (float(m + n), 1), (float(n), m - 1), (float(n + 2), m - 1), (lo, 1), (hi, 1)]
    return _grouped(terms + [(m + _path_value(n, j), 2) for j in range(1, n)])


def _nc_distance_laplacian(m, n):
    lo, hi = _roots(
        float(9 * (n + m) - 4), float(18 * n * n + 44 * n * m + 18 * m * m - 24 * n - 12 * m)
    )
    terms = [(0.0, 1), (float(3 * (n + m)), 1), (float(3 * n + 5 * m), m - 1)]
    terms += [(float(3 * n + 5 * m - 4), m - 1), (lo, 1), (hi, 1)]
    return _grouped(terms + [(5 * n + 3 * m - _path_value(n, j), 2) for j in range(1, n)])


def _rest(spectrum):
    values = spectrum.expanded() if hasattr(spectrum, "expanded") else [float(v) for v in spectrum]
    return sorted(values)[1:]


def _join_laplacian(spec1, n1, spec2, n2):
    terms = [(0.0, 1), (float(n1 + n2), 1)]
    terms += [(v + n2, 1) for v in _rest(spec1)] + [(v + n1, 1) for v in _rest(spec2)]
    return _grouped(terms)


def _join_distance_laplacian(spec1, n1, spec2, n2):
    terms = [(0.0, 1), (float(n1 + n2), 1)]
    terms += [(n2 + 2 * n1 - v, 1) for v in _rest(spec1)]
    terms += [(n1 + 2 * n2 - v, 1) for v in _rest(spec2)]
    return _grouped(terms)


def _random_laplacian_spectrum(rng, order):
    """A seeded stand-in for a Laplacian spectrum: a zero (or a value within the
    join maps' zero tolerance) and order - 1 values, exact quarters half of the
    time so that values collide within and across the two parts."""
    values = [rng.choice([0.0, -1e-9, 3e-10])]
    for _ in range(order - 1):
        values.append(rng.randint(0, 4 * order) / 4 if rng.random() < 0.5 else rng.uniform(0, 2 * order))
    rng.shuffle(values)
    if rng.random() < 0.5:
        return group_multiplicities(sorted(values), rng.choice([0.0, 1e-6]))
    return values


class TestBitIdentity:
    @pytest.mark.parametrize(
        "form, reference, low, source, errata",
        [
            (fan_laplacian_spectrum, _fan_laplacian, 1, "fan-laplacian", ()),
            (
                fan_distance_laplacian_spectrum,
                _fan_distance_laplacian,
                1,
                "fan-distance-laplacian",
                (FAN_DISTANCE_LAPLACIAN_NOTE,),
            ),
            (nc_laplacian_spectrum, _nc_laplacian, 2, "nc-laplacian", (NC_LAPLACIAN_NOTE,)),
            (
                nc_distance_laplacian_spectrum,
                _nc_distance_laplacian,
                2,
                "nc-distance-laplacian",
                (NC_DISTANCE_LAPLACIAN_NOTE,),
            ),
        ],
        ids=["fan-laplacian", "fan-distance-laplacian", "nc-laplacian", "nc-distance-laplacian"],
    )
    def test_family_forms(self, form, reference, low, source, errata):
        for m in range(low, MAX_SWEEP_PARAM + 1):
            for n in range(low, MAX_SWEEP_PARAM + 1):
                spectrum = form(m, n)
                assert spectrum.pairs == reference(m, n), (m, n)
                assert (spectrum.source, spectrum.errata_notes) == (source, errata)

    def test_the_nc_discriminants_are_sums_of_squares(self):
        # so both quadratic factors have two real roots over the whole domain, exactly
        for m in range(2, MAX_SWEEP_PARAM + 1):
            for n in range(2, MAX_SWEEP_PARAM + 1):
                assert (m + n + 2) ** 2 - 8 * m == (m + n - 2) ** 2 + 8 * n
                c = 18 * n * n + 44 * n * m + 18 * m * m - 24 * n - 12 * m
                assert (9 * (m + n) - 4) ** 2 - 4 * c == (3 * (n - m) + 4) ** 2 + 4 * m * n

    @pytest.mark.parametrize(
        "form, reference, source",
        [
            (join_laplacian_spectrum, _join_laplacian, "join-laplacian"),
            (join_distance_laplacian_spectrum, _join_distance_laplacian, "join-distance-laplacian"),
        ],
        ids=["join-laplacian", "join-distance-laplacian"],
    )
    def test_join_maps(self, form, reference, source):
        rng = random.Random(20241)
        for _ in range(300):
            n1, n2 = rng.randint(1, 9), rng.randint(1, 9)
            spec1 = _random_laplacian_spectrum(rng, n1)
            spec2 = _random_laplacian_spectrum(rng, n2)
            spectrum = form(spec1, n1, spec2, n2)
            assert spectrum.pairs == reference(spec1, n1, spec2, n2), (spec1, spec2)
            assert (spectrum.source, spectrum.errata_notes) == (source, ())


# The skeleton groups (value, multiplicity) atoms; listing every copy and grouping the
# numeric way must give the same pairs, bit for bit.


def _every_copy(terms, parts, quadratics):
    values = [0.0]
    for value, k in terms:
        values += [float(value)] * k
    for b, c in quadratics:
        values += _roots(float(b), float(c))
    for base, offset, scale, k in parts:
        values += [offset + scale * v for v in base for _ in range(k)]
    return group_multiplicities(sorted(values)).pairs


def _hex(pairs):
    return [(value.hex(), k) for value, k in pairs]


_BASE_VALUE = st.one_of(
    st.floats(-40, 40, allow_nan=False),
    st.integers(-3, 40).map(float),  # at offset 0 and scale 1, the value of a term
    st.sampled_from([-0.0, 0.1, 1 / 3]),
)
_TERMS = st.lists(st.tuples(st.integers(-3, 40), st.integers(0, 5)), max_size=4)
_PARTS = st.lists(
    st.tuples(
        st.lists(_BASE_VALUE, max_size=6),
        st.sampled_from([0, 0, 1, 7, -3]),
        st.sampled_from([1, 1, -1, 2, -2]),
        st.integers(0, 3),
    ),
    max_size=3,
)
# x^2 - b x + c with c <= b^2 / 4, so both roots are real
_QUADRATICS = st.lists(
    st.integers(-20, 40).flatmap(lambda b: st.tuples(st.just(b), st.integers(-50, b * b // 4))),
    max_size=2,
)


@st.composite
def _skeletons(draw):
    """Random skeleton inputs, with one more part whose value lies a drawn share of the
    default width above a value already listed: just inside or just outside its group."""
    terms, parts, quadratics = draw(_TERMS), draw(_PARTS), draw(_QUADRATICS)
    values = [v for v, _ in _every_copy(terms, parts, quadratics)]
    width = GROUPING_SCALE * max(1.0, *map(abs, values))
    share = draw(st.sampled_from([0.0, 0.5, 0.999, 1.001, 1.5, -0.999, -1.001]))
    near = draw(st.sampled_from(values)) + share * width
    return terms, parts + [([near], 0, 1, draw(st.integers(0, 3)))], quadratics


class TestCachedBases:
    """The path bases each closed form reads, computed once per n."""

    def test_the_bases_are_the_formula_bit_for_bit(self):
        for n in range(1, 131):
            cosines = [math.cos(math.pi * j / n) for j in range(1, n)]
            assert list(map(float.hex, closed_forms._cosines(n))) == list(map(float.hex, cosines))
            path = [2.0 - 2.0 * math.cos(math.pi * j / n) for j in range(1, n)]
            assert list(map(float.hex, closed_forms._path_values(n))) == list(map(float.hex, path))

    @pytest.mark.parametrize("base", ["_cosines", "_path_values"])
    def test_a_base_is_a_tuple_kept_per_n(self, base):
        get = getattr(closed_forms, base)
        for n in (1, 2, 64, 130):
            first = get(n)
            assert type(first) is tuple and len(first) == n - 1
            assert get(n) is first

    def test_the_public_forms_stay_plain_functions(self):
        # the benchmark's span recorder wraps plain module functions
        for name in ("fan_laplacian_spectrum", "fan_distance_laplacian_spectrum", "nc_laplacian_spectrum",
                     "nc_distance_laplacian_spectrum", "fan_distance_laplacian_as_stated"):
            assert inspect.isfunction(getattr(closed_forms, name))


class TestAtoms:
    @given(_skeletons())
    @example(([], [([0.1], 0, 1, 3)], []))  # 0.1 three times: a mean of 0.10000000000000002
    @example(([], [([0.1], 0, 1, 3), ([0.1], 0, 1, 3)], []))  # six: 0.6 added, not 2 * 0.3...04
    @example(([(3, 2), (5, 0)], [([3.0, -0.0, 2.0], 0, 1, 2)], [(5, 6)]))  # roots 2 and 3: merges
    @example(([(1, 1)], [([1.0 + 0.9e-11, 1.0 + 1.1e-11], 0, 1, 1)], []))  # inside, then outside
    @settings(max_examples=300, deadline=None)
    def test_atoms_group_as_every_copy_would(self, skeleton):
        terms, parts, quadratics = skeleton
        spectrum = _spectrum("test", terms, parts, quadratics)
        assert _hex(spectrum.pairs) == _hex(_every_copy(terms, parts, quadratics))
        expected = sum(k for _, k in terms) + 2 * len(quadratics) + 1
        assert spectrum.order == expected + sum(len(base) * k for base, _, _, k in parts)

    def test_a_non_integer_atom_adds_each_copy(self):
        assert _spectrum("test", [], [([0.1], 0, 1, 3)]).pairs == ((0.0, 1), (0.10000000000000002, 3))
        six = _spectrum("test", [], [([0.1], 0, 1, 3), ([0.1], 0, 1, 3)])
        assert six.pairs == ((0.0, 1), (0.6 / 6, 6))

    def test_a_value_that_is_not_finite_is_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            _spectrum("test", [], [([1e308], 0, 10, 1)])

    def test_an_atom_whose_copies_overflow_keeps_a_finite_mean(self):
        # 1.7e308 added three times is inf; the mean is the value itself
        assert _spectrum("test", [], [([1.7e308], 0, 1, 3)]).pairs == ((0.0, 1), (1.7e308, 3))
