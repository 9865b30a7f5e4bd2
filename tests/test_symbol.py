"""Tests of the momentum-space symbol layer: evaluation, fibering, bulk
bands, gap location, Fermi projections and Chern pairings.

Closed-form expectations: the 2x2 massive two-band model has bands
+-sqrt(k^2 + m^2), the scalar second-order model has band k^2, and the 3x3
rotating shallow-water model has bands {0, +-sqrt(k^2 + (f - nu k^2)^2)}.
"""
import numpy as np
import pytest

from bec.errors import (
    ContractViolation,
    DomainError,
    GaplessPointError,
    NoGapError,
)
from bec import symbol
from bec.symbol import (
    GapWindow,
    Symbol,
    _curvature_integrand,
    _projection_stack,
    bulk_bands,
    chern,
    fiberize,
    find_gap,
    relative_chern,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
Y = np.array([[0.0, 1.0], [-1.0, 0.0]])


def dirac_symbol(m):
    return Symbol(2, {(1, 0): SX, (0, 1): SY, (0, 0): m * SZ})


# ---------------------------------------------------------------------------
# construction and evaluation


def test_symbol_rejects_non_hermitian_coefficient():
    with pytest.raises(ContractViolation):
        Symbol(2, {(0, 0): np.array([[0.0, 1.0], [0.0, 0.0]])})


def test_symbol_rejects_degree_above_four():
    with pytest.raises(ContractViolation):
        Symbol(1, {(3, 2): np.array([[1.0]])})


def test_symbol_drops_zero_coefficients():
    S = Symbol(1, {(0, 0): [[1.0]], (2, 0): [[0.0]]})
    assert set(S.terms) == {(0, 0)}
    assert np.allclose(S(2.0, 0.0), [[1.0]])


def test_eval_two_band_at_origin_is_mass_term(dirac_model):
    H = dirac_model.symbol(0.0, 0.0)
    assert np.allclose(H, SZ)


def test_eval_scalar_second_order(lap_model):
    assert np.allclose(lap_model.symbol(1.0, 2.0), [[5.0]])


def test_eval_shallow_water_matrix():
    from bec.models import shallow_water

    S = shallow_water(1.0, 0.0).symbol
    H = S(1.0, 0.0)
    want = np.array([[0.0, 1.0, 0.0],
                     [1.0, 0.0, 1.0j],
                     [0.0, -1.0j, 0.0]])
    assert np.allclose(H, want)


def test_eval_is_hermitian_at_random_momenta(shallow_model, regdirac_model):
    rng = np.random.default_rng(3)
    for S in (shallow_model.symbol, regdirac_model.symbol):
        for k1, k2 in rng.normal(scale=3.0, size=(25, 2)):
            H = S(k1, k2)
            assert np.max(np.abs(H - H.conj().T)) < 1e-12


def test_derivative_of_fourth_order_symbol(regdirac_model):
    m, eps = 1.0, 0.1
    S = regdirac_model.symbol
    for k1, k2 in ((0.0, 0.0), (0.7, -1.3), (-2.0, 0.4)):
        assert np.allclose(S.derivative(0)(k1, k2), SX + 2 * eps * k1 * SZ)
        assert np.allclose(S.derivative(1)(k1, k2), SY + 2 * eps * k2 * SZ)
    assert set(S.derivative(0).derivative(0).terms) == {(0, 0)}


def test_derivative_matches_difference_quotient(lap_model, shallow_model,
                                                dirac_model):
    h = 1e-5
    for S in (lap_model.symbol, shallow_model.symbol, dirac_model.symbol):
        for k1, k2 in ((0.3, -0.8), (1.7, 2.1)):
            d1 = (S(k1 + h, k2) - S(k1 - h, k2)) / (2 * h)
            d2 = (S(k1, k2 + h) - S(k1, k2 - h)) / (2 * h)
            assert np.max(np.abs(S.derivative(0)(k1, k2) - d1)) < 1e-8
            assert np.max(np.abs(S.derivative(1)(k1, k2) - d2)) < 1e-8


def test_derivative_rejects_bad_axis(dirac_model):
    with pytest.raises(ContractViolation):
        dirac_model.symbol.derivative(2)


# ---------------------------------------------------------------------------
# fibering over the boundary momentum


def test_fiberize_two_band_coefficients(dirac_model):
    for k in (0.0, 1.0, -2.0):
        F = fiberize(dirac_model.symbol, k)
        assert F.k == k
        (Ds,) = F.sides
        assert Ds.shape == (1, 2, 2, 2)
        assert np.max(np.abs(Ds[0, 0] - (k * SX + SZ))) < 1e-14
        assert np.max(np.abs(Ds[0, 1] - Y)) < 1e-14


def test_fiberize_scalar_coefficients(lap_model):
    for k in (0.0, 1.0, -2.0):
        (Ds,) = fiberize(lap_model.symbol, k).sides
        assert Ds.shape == (1, 3, 1, 1)
        assert np.max(np.abs(Ds[0, 0] - np.array([[k * k]]))) < 1e-14
        assert np.max(np.abs(Ds[0, 1])) < 1e-14
        assert np.max(np.abs(Ds[0, 2] - np.array([[-1.0]]))) < 1e-14


def test_fiberize_fourth_order_coefficients(regdirac_model):
    m, eps = 1.0, 0.1
    for k in (0.0, 1.0, -2.0):
        (Ds,) = fiberize(regdirac_model.symbol, k).sides
        assert Ds.shape == (1, 3, 2, 2)
        D0 = k * SX + (m + eps * k * k) * SZ
        assert np.max(np.abs(Ds[0, 0] - D0)) < 1e-14
        assert np.max(np.abs(Ds[0, 1] - Y)) < 1e-14
        assert np.max(np.abs(Ds[0, 2] - (-eps * SZ))) < 1e-14


def test_char_matrix_of_fiber(dirac_model):
    from bec.extension import _char_matrices

    Ds = dirac_model.symbol.fiber_stack([0.5])
    # D0 - mu D1 - z at mu=2 and mu=-1, z=i
    M = _char_matrices(Ds, np.array([1j]), np.array([[2.0, -1.0]]))
    for mu, Mmu in zip((2.0, -1.0), M[0]):
        want = (0.5 * SX + SZ) - mu * Y - 1j * np.eye(2)
        assert np.max(np.abs(Mmu - want)) < 1e-14


@pytest.mark.parametrize("name, side", [("laplacian", "halfline"),
                                        ("dirac", "halfline"),
                                        ("regdirac", "halfline"),
                                        ("dirac", "interface")])
def test_fiber_stack_equals_stacked_fiberize(name, side, lap_model,
                                             dirac_model, regdirac_model,
                                             dirac_interface_model):
    model = {("laplacian", "halfline"): lap_model,
             ("dirac", "halfline"): dirac_model,
             ("regdirac", "halfline"): regdirac_model,
             ("dirac", "interface"): dirac_interface_model}[name, side]
    fam = model.fiber_family(side)
    ks = np.concatenate([[0.0, 1e4, -1e4], np.linspace(-30.0, 30.0, 601)])
    stacks = fam.stacks(ks)
    assert np.array_equal(stacks.ks, ks)
    assert len(stacks.sides) == (2 if side == "interface" else 1)
    for i, k in enumerate(ks):
        F = fam(k)
        assert F.k == k and len(F.sides) == len(stacks.sides)
        for Ds, P in zip(stacks.sides, F.sides):
            assert Ds.shape == (len(ks),) + P.shape[1:]
            assert np.array_equal(Ds[i], P[0])


def test_fiber_stack_rows_equal_the_stack_of_those_momenta(
        dirac_interface_model):
    fam = dirac_interface_model.fiber_family("interface")
    ks = np.array([-2.0, 0.5, 3.0])
    picked, direct = fam.stacks(ks)[[2, 0]], fam.stacks(ks[[2, 0]])
    assert np.array_equal(picked.ks, direct.ks)
    assert len(picked.sides) == len(direct.sides) == 2
    for Ds, want in zip(picked.sides, direct.sides):
        assert np.array_equal(Ds, want)
    with pytest.raises(ContractViolation):
        picked.k


def test_fiber_stack_keeps_order_where_top_coefficient_vanishes():
    # D_2(k) = -(1 + k) vanishes at k = -1; the stack keeps order 2 at
    # every momentum, and so does the fiber at a single momentum
    S = Symbol(1, {(2, 0): [[1.0]], (0, 2): [[1.0]], (1, 2): [[1.0]]})
    D = S.fiber_stack([-1.0, 0.5])
    assert D.shape == (2, 3, 1, 1)
    assert D[0, 2, 0, 0] == 0.0 and D[1, 2, 0, 0] == -1.5
    assert np.array_equal(D[1], fiberize(S, 0.5).sides[0][0])
    assert np.array_equal(D[0], fiberize(S, -1.0).sides[0][0])


def test_fiber_stack_of_constant_symbol_has_order_zero():
    D = Symbol(2, {(0, 0): SZ}).fiber_stack(np.array([0.0, 2.0]))
    assert D.shape == (2, 1, 2, 2)
    assert np.array_equal(D[1, 0], SZ)


# ---------------------------------------------------------------------------
# bulk bands and gaps


def test_bulk_bands_two_band_closed_form(dirac_model):
    ky = np.linspace(-3.0, 3.0, 11)
    w = bulk_bands(dirac_model.symbol, 0.0, ky)
    assert w.shape == (2, 11)
    assert np.allclose(w[0], -np.sqrt(1.0 + ky * ky))
    assert np.allclose(w[1], np.sqrt(1.0 + ky * ky))


def test_bulk_bands_scalar_closed_form(lap_model):
    ky = np.linspace(0.0, 2.0, 5)
    w = bulk_bands(lap_model.symbol, 0.0, ky)
    assert np.allclose(w[0], ky * ky)


def test_bulk_bands_shallow_closed_form():
    from bec.models import shallow_water

    S = shallow_water(1.0, 0.0).symbol
    ky = np.linspace(-2.0, 2.0, 9)
    w = bulk_bands(S, 0.0, ky)
    assert np.allclose(w[1], 0.0, atol=1e-12)
    assert np.allclose(w[2], np.sqrt(1.0 + ky * ky))
    assert np.allclose(w[0], -np.sqrt(1.0 + ky * ky))


def test_bulk_bands_shallow_frozen_sample(shallow_model):
    w = bulk_bands(shallow_model.symbol, 0.7, np.array([-0.4]))
    assert np.allclose(sorted(w[:, 0]),
                       [-1.23459507531822, 0.0, 1.23459507531822],
                       atol=1e-12)


def test_bulk_bands_two_band_frozen_sample(dirac_model):
    w = bulk_bands(dirac_model.symbol, 0.6, np.array([-0.8]))
    assert abs(w[1, 0] - 1.4142135623731) < 1e-10


def test_bulk_bands_rejects_bad_grid(dirac_model):
    with pytest.raises(ContractViolation):
        bulk_bands(dirac_model.symbol, 0.0, np.array([1.0, 0.0]))
    with pytest.raises(ContractViolation):
        bulk_bands(dirac_model.symbol, 0.0, np.array([]))


def test_gap_window_contract():
    with pytest.raises(ContractViolation):
        GapWindow(1.0, 1.0)
    g = GapWindow(-1.0, 1.0)
    assert g.width() == 2.0


def test_find_gap_two_band(dirac_model):
    g = find_gap(dirac_model.symbol, 0.0, 6.0)
    assert abs(g.lo + 1.0) < 1e-2
    assert abs(g.hi - 1.0) < 1e-2


def test_find_gap_below_scalar_spectrum(lap_model):
    g = find_gap(lap_model.symbol, -1.0, 6.0)
    assert g.lo == -np.inf
    assert 0.0 <= g.hi < 0.05


def test_find_gap_rejects_filled_level(shallow_model):
    # the flat band sits at zero, so there is no gap around zero
    with pytest.raises(NoGapError):
        find_gap(shallow_model.symbol, 0.0, 6.0)


def test_find_gap_rejects_coarse_resolution(dirac_model):
    with pytest.raises(ContractViolation):
        find_gap(dirac_model.symbol, 0.0, 6.0, resolution=32)


# ---------------------------------------------------------------------------
# Fermi projections


def test_fermi_projection_two_band_at_origin():
    origin = np.zeros(1)
    P = _projection_stack(dirac_symbol(1.0), origin, origin, 0.0)[0]
    assert np.allclose(P, (np.eye(2) - SZ) / 2.0)
    P = _projection_stack(dirac_symbol(-1.0), origin, origin, 0.0)[0]
    assert np.allclose(P, (np.eye(2) + SZ) / 2.0)


def test_fermi_projection_is_projection(regdirac_model):
    rng = np.random.default_rng(11)
    k1, k2 = rng.normal(scale=2.0, size=(2, 10))
    for P in _projection_stack(regdirac_model.symbol, k1, k2, 0.0):
        assert np.max(np.abs(P @ P - P)) < 1e-10
        assert np.max(np.abs(P - P.conj().T)) < 1e-10
        assert abs(np.trace(P).real - 1.0) < 1e-10


def test_fermi_projection_rejects_gapless_point(lap_model):
    # the scalar band passes through k^2 = 1 at |k| = 1
    with pytest.raises(GaplessPointError):
        _projection_stack(lap_model.symbol, np.array([1.0]),
                          np.array([0.0]), 1.0)


# ---------------------------------------------------------------------------
# curvature integrand


def _curvature_by_differences(S, level, k1, k2):
    """Oracle for the curvature integrand Tr(P [d2 P, d1 P]) / (2 pi i):
    derivatives of P by Richardson-extrapolated central differences."""
    h = 1e-4 * (1.0 + np.hypot(k1, k2))
    hh = h[:, None, None]

    def P(dk1, dk2):
        return _projection_stack(S, k1 + dk1, k2 + dk2, level)

    d1 = (4 * (P(h / 2, 0) - P(-h / 2, 0)) / hh
          - (P(h, 0) - P(-h, 0)) / (2 * hh)) / 3.0
    d2 = (4 * (P(0, h / 2) - P(0, -h / 2)) / hh
          - (P(0, h) - P(0, -h)) / (2 * hh)) / 3.0
    comm = d2 @ d1 - d1 @ d2
    return np.einsum("nij,nji->n", P(0, 0), comm) / (2j * np.pi)


@pytest.mark.parametrize("name, params, level", [
    ("dirac", {"m": 1.0}, 0.0),
    ("regdirac", {"m": -1.0, "eps": 0.1}, 0.0),
    ("shallow", {"f": 1.0, "nu": 0.1}, 0.5),
])
def test_curvature_integrand_matches_differences(name, params, level):
    from bec.models import build_model

    S = build_model(name, **params).symbol
    rng = np.random.default_rng(5)
    # nodes spread like the quadrature's, over the compactified plane
    k1, k2 = np.tan(np.pi / 2 * rng.uniform(-0.99, 0.99, size=(2, 300)))
    got = _curvature_integrand(S, level)(k1, k2)
    assert got.shape == (300,)
    assert np.max(np.abs(got - _curvature_by_differences(S, level, k1, k2))) \
        < 1e-10


def test_curvature_integrand_of_two_band_closed_form():
    # Berry curvature of k1 sx + k2 sy + m sz below zero: m / (4 pi r^3)
    k1 = np.array([0.0, 0.5, -1.2, 3.0])
    k2 = np.array([0.0, 0.3, 0.8, -4.0])
    got = _curvature_integrand(dirac_symbol(1.0), 0.0)(k1, k2)
    r = np.sqrt(k1 ** 2 + k2 ** 2 + 1.0)
    assert np.allclose(got, 1.0 / (4 * np.pi * r ** 3), rtol=0, atol=1e-14)


def test_curvature_integrand_rejects_gapless_node(lap_model):
    f = _curvature_integrand(lap_model.symbol, 1.0)
    f(np.array([0.3, 2.0]), np.array([0.2, 0.0]))
    # the scalar band k^2 crosses level 1 at the second node
    with pytest.raises(GaplessPointError):
        f(np.array([0.3, 1.0]), np.array([0.2, 0.0]))


# ---------------------------------------------------------------------------
# Chern pairings


def test_chern_of_scalar_symbol_is_zero(lap_model):
    value, resid = chern(lap_model.symbol, -1.0, tol=1e-4)
    assert abs(value) < 1e-8
    assert resid < 1e-8


def test_chern_fourth_order_negative_mass(monkeypatch):
    from bec.models import regularized_dirac

    cells = []
    quad_2d = symbol.quad_2d

    def counted(f, **kwargs):
        res = quad_2d(f, **kwargs)
        cells.append(res.cells)
        return res

    monkeypatch.setattr(symbol, "quad_2d", counted)
    S = regularized_dirac(-1.0, 0.1).symbol
    value, resid = chern(S, 0.0, tol=1e-4)
    assert abs(value + 1.0) < 1e-3
    assert resid < 1e-3
    # the cell schedule of the finite-difference integrand it replaced
    assert cells == [199]


def test_chern_two_band_half_integer_warns(dirac_model):
    with pytest.warns(UserWarning):
        value, _ = chern(dirac_model.symbol, 0.0, tol=1e-4)
    assert abs(value - 0.5) < 1e-2


def test_relative_chern_same_symbol_is_zero(dirac_model):
    value, resid = relative_chern(dirac_model.symbol, dirac_model.symbol,
                                  0.0, tol=1e-4)
    assert value == 0.0
    assert resid == 0.0


def test_relative_chern_two_band_masses():
    S1, S2 = dirac_symbol(1.0), dirac_symbol(-1.0)
    v12, r12 = relative_chern(S1, S2, 0.0, tol=1e-4)
    v21, r21 = relative_chern(S2, S1, 0.0, tol=1e-4)
    assert abs(v12 - 1.0) < 1e-3 and r12 < 1e-3
    assert abs(v21 + 1.0) < 1e-3
    # antisymmetry up to quadrature error
    assert abs(v12 + v21) < 2e-4


def test_relative_chern_rejects_size_mismatch(dirac_model, shallow_model):
    with pytest.raises(DomainError):
        relative_chern(dirac_model.symbol, shallow_model.symbol, 0.0)
