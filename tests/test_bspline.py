"""Knot vector and 1D basis tests: span lookup, basis values and
derivatives against naive recursions and finite differences, the Taylor
pieces against the Cox-de Boor recursion, array calls against point calls,
stacked tables of several knot vectors, insertion and elevation geometry
preservation and whole-net insertion and elevation against row-by-row
calls."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from fgplate.bspline import (
    KnotVector,
    _cox_de_boor,
    basis_derivs,
    basis_tables,
    elevate_bezier,
    find_span,
    greville_abscissae,
    insert_knot,
    open_uniform_knots,
)
from fgplate.errors import DomainError, RefinementError

from oracles import central_diff, naive_bspline, naive_bspline_deriv


def kv(values, p):
    return KnotVector(np.asarray(values, dtype=float), p)


# ---------------------------------------------------------------------------
# knot vector invariants
# ---------------------------------------------------------------------------

def test_knot_vector_accepts_open_vectors():
    k = kv([0, 0, 0, 0.5, 1, 1, 1], 2)
    assert k.n_basis == 4
    assert k.domain == (0.0, 1.0)


@pytest.mark.parametrize(
    "values,p",
    [
        ([0, 0, 1, 1], 2),              # ends not repeated p+1 times
        ([0, 0, 0, 0, 1, 1, 1], 2),     # first knot repeated too often
        ([0, 0, 0, 0.5, 0.5, 0.5, 1, 1, 1], 2),  # interior multiplicity > p
        ([0, 0, 0, 0.6, 0.4, 1, 1, 1], 2),       # decreasing
    ],
)
def test_knot_vector_rejects_invalid(values, p):
    with pytest.raises(ValueError):
        kv(values, p)


def test_open_uniform_counts():
    k = open_uniform_knots(3, 11)
    assert k.n_basis == 11 + 3
    assert len(k.spans()) == 11


# ---------------------------------------------------------------------------
# span lookup
# ---------------------------------------------------------------------------

def test_find_span_single_span():
    k = kv([0, 0, 0, 1, 1, 1], 2)
    assert find_span(k, 0.5) == 2
    assert find_span(k, 1.0) == 2  # right endpoint falls back to last span


def test_find_span_two_spans():
    k = kv([0, 0, 0, 0.5, 1, 1, 1], 2)
    assert find_span(k, 0.75) == 3
    assert find_span(k, 0.5) == 3
    assert find_span(k, 0.25) == 2


def test_find_span_rejects_outside():
    k = kv([0, 0, 0, 1, 1, 1], 2)
    with pytest.raises(DomainError):
        find_span(k, -0.1)
    with pytest.raises(DomainError):
        find_span(k, 1.1)
    with pytest.raises(DomainError):
        find_span(k, np.nan)


# ---------------------------------------------------------------------------
# basis values and derivatives
# ---------------------------------------------------------------------------

def test_bernstein_midpoint():
    k = kv([0, 0, 0, 1, 1, 1], 2)
    _, ders = basis_derivs(k, 0.5)
    assert_allclose(ders[0], [0.25, 0.5, 0.25], atol=1e-15)


def test_two_span_quadratic_values():
    # hand evaluation of the recursion on [0, 0.5) at xi = 0.25
    k = kv([0, 0, 0, 0.5, 1, 1, 1], 2)
    span, ders = basis_derivs(k, 0.25)
    assert span == 2
    assert_allclose(ders[0], [0.25, 0.625, 0.125], atol=1e-15)


@pytest.mark.parametrize(
    "values,p",
    [
        ([0, 0, 0, 1, 1, 1], 2),
        ([0, 0, 0, 0.5, 1, 1, 1], 2),
        ([0, 0, 0, 0, 0.5, 1, 1, 1, 1], 3),
        ([0, 0, 0, 0, 0.2, 0.2, 0.7, 1, 1, 1, 1], 3),
        ([0, 0, 0, 0, 0, 0.3, 0.6, 1, 1, 1, 1, 1], 4),
    ],
)
def test_values_match_naive_recursion(values, p):
    k = kv(values, p)
    rng = np.random.default_rng(42)
    for xi in np.concatenate([rng.random(50), np.array(values)]):
        span, ders = basis_derivs(k, float(xi))
        for j in range(p + 1):
            expected = naive_bspline(k.values, span - p + j, p, float(xi))
            assert abs(ders[0, j] - expected) < 1e-13
            for d in (1, 2):
                expected = naive_bspline_deriv(k.values, span - p + j, p, float(xi), d)
                assert abs(ders[d, j] - expected) < 1e-13 * max(1.0, abs(expected))


@pytest.mark.parametrize("p", [2, 3, 4])
def test_partition_and_derivative_sums(p):
    k = open_uniform_knots(p, 7)
    rng = np.random.default_rng(7)
    for xi in rng.random(200):
        _, ders = basis_derivs(k, float(xi))
        assert abs(ders[0].sum() - 1.0) < 1e-12
        assert abs(ders[1].sum()) < 1e-10
        assert abs(ders[2].sum()) < 1e-8


def test_derivatives_match_finite_differences():
    k = kv([0, 0, 0, 0, 0.25, 0.5, 0.5, 0.75, 1, 1, 1, 1], 3)
    step = 1e-6

    for xi in (0.1, 0.3, 0.62, 0.9):
        span, ders = basis_derivs(k, xi)

        def value(x, j):
            return naive_bspline(k.values, span - k.degree + j, k.degree, x)

        for j in range(k.degree + 1):
            d1 = central_diff(lambda x: value(x, j), xi, step)
            assert abs(ders[1, j] - d1) < 1e-5 * max(1.0, abs(d1))


def test_degenerate_spans_never_fault():
    # interior knot with full multiplicity p: C0 kink, still evaluable
    k = kv([0, 0, 0, 0.5, 0.5, 1, 1, 1], 2)
    for xi in (0.0, 0.25, 0.5, 0.75, 1.0):
        _, ders = basis_derivs(k, xi)
        assert np.isfinite(ders).all()
        assert abs(ders[0].sum() - 1.0) < 1e-12


@pytest.mark.parametrize(
    "values,p",
    [
        ([0, 0, 0, 0.5, 0.5, 1, 1, 1], 2),
        ([0, 0, 0, 0, 0.2, 0.2, 0.7, 1, 1, 1, 1], 3),
        ([0, 0, 0, 0, 0, 0.3, 0.6, 0.6, 0.6, 1, 1, 1, 1, 1], 4),
    ],
)
def test_array_calls_equal_point_calls(values, p):
    # repeated interior knots, the end points and every knot value
    k = kv(values, p)
    xs = np.concatenate([np.random.default_rng(5).random(40), k.values])
    assert np.array_equal(find_span(k, xs), [find_span(k, float(x)) for x in xs])
    for max_deriv in (0, 1, 2):
        spans, ders = basis_derivs(k, xs, max_deriv)
        points = [basis_derivs(k, float(x), max_deriv) for x in xs]
        assert np.array_equal(spans, [span for span, _ in points])
        assert np.array_equal(ders, np.stack([d for _, d in points]))


@pytest.mark.parametrize("p", range(2, 9))
def test_taylor_pieces_match_the_recursion(p):
    # the tables come from the midpoint pieces, the reference from the
    # Cox-de Boor recursion that builds them; pieces about the left knot
    # missed this by up to 3.8e-13 at p = 8
    rng = np.random.default_rng(p)
    for multiplicity in range(1, p):
        for n_elements in range(1, 41):
            k = open_uniform_knots(p, n_elements, multiplicity)
            xs = np.concatenate([rng.random(400), k.values])
            spans, ders = basis_derivs(k, xs, 2)
            reference = _cox_de_boor(k, xs, spans, 2)
            scale = np.abs(reference).max(axis=(0, 2))
            assert (np.abs(ders - reference).max(axis=(0, 2)) <= 1e-14 * scale).all()


def test_stacked_tables_of_one_degree_only():
    k2, k3 = open_uniform_knots(2, 3), open_uniform_knots(3, 3)
    (span2, ders2), (span3, ders3) = basis_tables(((k2, 0.4), (k2, [0.1, 0.9])), 1)
    assert np.array_equal(span3, basis_derivs(k2, np.array([0.1, 0.9]), 1)[0])
    assert ders2.shape == (1, 2, 3) and ders3.shape == (2, 2, 3)
    with pytest.raises(ValueError, match="one degree"):
        basis_tables(((k2, 0.4), (k3, 0.4)), 1)


# ---------------------------------------------------------------------------
# knot insertion / degree elevation / greville
# ---------------------------------------------------------------------------

def _curve_eval(k: KnotVector, ctrl: np.ndarray, xi: float) -> np.ndarray:
    span, ders = basis_derivs(k, xi, 0)
    return ders[0] @ ctrl[span - k.degree : span + 1]


def test_insert_knot_preserves_curve():
    k = kv([0, 0, 0, 0, 0.5, 1, 1, 1, 1], 3)
    rng = np.random.default_rng(3)
    ctrl = rng.random((k.n_basis, 2))
    k2, ctrl2 = insert_knot(k, ctrl, 0.3)
    assert k2.n_basis == k.n_basis + 1
    for xi in rng.random(100):
        assert_allclose(_curve_eval(k2, ctrl2, float(xi)), _curve_eval(k, ctrl, float(xi)), atol=1e-12)


def test_insert_knot_rejects_bad_requests():
    k = kv([0, 0, 0, 0.5, 0.5, 1, 1, 1], 2)
    ctrl = np.zeros((k.n_basis, 2))
    with pytest.raises(RefinementError):
        insert_knot(k, ctrl, 0.5)  # would exceed multiplicity p
    with pytest.raises(RefinementError):
        insert_knot(k, ctrl, 0.0)  # not strictly interior
    with pytest.raises(RefinementError):
        insert_knot(k, ctrl, 1.0)


def test_bezier_elevation_preserves_curve():
    ctrl = np.array([[0.0, 0.0], [0.5, 1.0], [1.0, 0.0]])
    k2 = kv([0, 0, 0, 1, 1, 1], 2)
    elevated = elevate_bezier(ctrl, 2)
    k4 = kv([0, 0, 0, 0, 0, 1, 1, 1, 1, 1], 4)
    for xi in np.linspace(0, 1, 33):
        assert_allclose(_curve_eval(k4, elevated, float(xi)), _curve_eval(k2, ctrl, float(xi)), atol=1e-14)


def test_net_operations_equal_stacked_rows():
    k = kv([0, 0, 0, 0, 0.5, 1, 1, 1, 1], 3)
    net = np.random.default_rng(11).random((k.n_basis, 4, 3))
    k2, refined = insert_knot(k, net, 0.3)
    rows = [insert_knot(k, net[:, j], 0.3) for j in range(net.shape[1])]
    assert np.array_equal(k2.values, rows[0][0].values)
    assert np.array_equal(refined, np.stack([row for _, row in rows], axis=1))
    bezier = net[:3]
    elevated = elevate_bezier(bezier, 2)
    assert np.array_equal(elevated, np.stack([elevate_bezier(bezier[:, j], 2)
                                              for j in range(net.shape[1])], axis=1))


def test_greville_reproduces_identity():
    k = open_uniform_knots(3, 6)
    g = greville_abscissae(k)
    assert g[0] == 0.0 and g[-1] == 1.0
    for xi in np.linspace(0, 1, 17):
        span, ders = basis_derivs(k, float(xi), 0)
        x = ders[0] @ g[span - 3 : span + 1]
        assert abs(x - xi) < 1e-14
