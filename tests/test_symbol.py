"""Tests of the momentum-space symbol layer: evaluation, fibering, bulk
bands, gap location, Fermi projections and Chern pairings.

Closed-form expectations: the 2x2 massive two-band model has bands
+-sqrt(k^2 + m^2), the scalar second-order model has band k^2, and the 3x3
rotating shallow-water model has bands {0, +-sqrt(k^2 + (f - nu k^2)^2)}.
"""
import warnings

import numpy as np
import pytest

from bec.errors import (
    ContractViolation,
    DomainError,
    GaplessPointError,
    NoGapError,
)
from bec import symbol
from bec.numerics import _eigh_stack, _stack_product
from bec.symbol import (
    GapWindow,
    Symbol,
    _curvature_integrand,
    _projection_stack,
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


SHIPPED_SYMBOLS = [("laplacian", {}), ("dirac", {"m": 1.0}),
                   ("regdirac", {"m": -1.0, "eps": 0.1}),
                   ("shallow", {"f": 1.0, "nu": 0.1})]


@pytest.mark.parametrize("name, params", SHIPPED_SYMBOLS,
                         ids=[n for n, _ in SHIPPED_SYMBOLS])
def test_eval_batch_equals_the_broadcast_sum(name, params):
    # the entry-wise sum is the sum of broadcast (n, N, N) products of each
    # term, bit for bit, on the symbol and both of its derivatives
    from bec.models import build_model

    S = build_model(name, **params).symbol
    rng = np.random.default_rng(8)
    k1, k2 = np.tan(np.pi / 2 * rng.uniform(-0.999, 0.999, size=(2, 1280)))
    for T in (S, S.derivative(0), S.derivative(1)):
        ref = np.zeros((len(k1), T.N, T.N), dtype=complex)
        for (a, b), C in T.terms.items():
            ref += (k1 ** a * k2 ** b)[:, None, None] * C
        assert T.eval_batch(k1, k2).tobytes() == ref.tobytes()


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
    from stacked_reference import _char_matrices

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
        F = model.fiber(k, side)
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
# gaps


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


def test_find_gap_rejects_level_between_samples_of_one_band(dirac_model,
                                                            lap_model):
    # 1.5 and 1.0001 lie in the upper Dirac band, 3 and 1e-4 in the
    # Laplacian band, though no grid sample is within 1e-12 of any of them;
    # the two levels just past a band edge need the sample at k = 0
    for model, level in ((dirac_model, 1.5), (lap_model, 3.0),
                         (dirac_model, 1.0001), (lap_model, 1e-4)):
        with pytest.raises(NoGapError, match="band passes through"):
            find_gap(model.symbol, level, 6.0)
    # a level in the gap, close to its edge, still has its gap
    g = find_gap(dirac_model.symbol, 0.999, 6.0)
    assert g.lo < 0.999 < g.hi


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


# (model, parameters, level): one rank per batch, then mixed ranks
INTEGRAND_CASES = [
    ("dirac", {"m": 1.0}, 0.0),
    ("regdirac", {"m": -1.0, "eps": 0.1}, 0.0),
    ("shallow", {"f": 1.0, "nu": 0.1}, 0.5),
    ("laplacian", {}, 1.0),
    ("dirac", {"m": 1.0}, 1.5),
    ("shallow", {"f": 1.0, "nu": 0.1}, 1.5),
]
INTEGRAND_IDS = ["%s@%g" % (c[0], c[2]) for c in INTEGRAND_CASES]


def _quadrature_like_nodes(n, seed=5):
    """Nodes spread like the quadrature's, over the compactified plane."""
    rng = np.random.default_rng(seed)
    return np.tan(np.pi / 2 * rng.uniform(-0.99, 0.99, size=(2, n)))


@pytest.mark.parametrize("name, params, level", INTEGRAND_CASES[:4],
                         ids=INTEGRAND_IDS[:4])
def test_curvature_integrand_matches_differences(name, params, level):
    from bec.models import build_model

    S = build_model(name, **params).symbol
    k1, k2 = _quadrature_like_nodes(300)
    got = _curvature_integrand(S, level)(k1, k2)
    assert got.shape == (300,)
    assert np.max(np.abs(got - _curvature_by_differences(S, level, k1, k2))) \
        < 1e-10


def _kubo_reference(S, level):
    """The full-matrix Kubo integrand: sum_ab f_a D_ab^2 (X2_ab X1_ba - c.c.)
    / (2 pi i) over all of X_j = V^dag d_j H V, with D_ab = (f_b - f_a) /
    (E_b - E_a), in the eigenbasis of 2 x 2 closed form and LAPACK for any
    other size.  The integrand had this form before it took the
    occupied x empty block and the 3 x 3 closed form."""
    dS = (S.derivative(0), S.derivative(1))

    def f(k1, k2):
        H = S.eval_batch(k1, k2)
        w, V = _eigh_stack(H) if S.N == 2 else np.linalg.eigh(H)
        Vh = V.conj().swapaxes(1, 2)
        X1, X2 = (_stack_product(_stack_product(Vh, d.eval_batch(k1, k2)), V)
                  for d in dS)
        T = X2 * X1.swapaxes(1, 2)
        occ = (w < level).astype(float)
        D = occ[:, None, :] - occ[:, :, None]
        np.divide(D, w[:, None, :] - w[:, :, None], out=D, where=D != 0)
        T -= T.conj()
        T *= occ[:, :, None] * D * D
        return (np.sum(T, axis=(1, 2)) / (2j * np.pi)).real

    return f


@pytest.mark.parametrize("name, params, level", INTEGRAND_CASES,
                         ids=INTEGRAND_IDS)
def test_curvature_integrand_matches_kubo_reference(name, params, level):
    from bec.models import build_model

    S = build_model(name, **params).symbol
    k1, k2 = _quadrature_like_nodes(600)
    ranks = np.count_nonzero(np.linalg.eigvalsh(S.eval_batch(k1, k2)) < level,
                             axis=1)
    # the last three batches mix ranks
    assert (len(set(ranks)) > 1) == (level == 1.0 or level == 1.5)
    got = _curvature_integrand(S, level)(k1, k2)
    ref = _kubo_reference(S, level)(k1, k2)
    # both forms round the Kubo sum a few eps apart; out to |k| ~ 64 that
    # stays well below 1e-13 of each value
    assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))


@pytest.mark.parametrize("name, params, level", INTEGRAND_CASES,
                         ids=INTEGRAND_IDS)
def test_curvature_integrand_rows_do_not_depend_on_their_batch(name, params,
                                                               level):
    from bec.models import build_model

    f = _curvature_integrand(build_model(name, **params).symbol, level)
    k1, k2 = _quadrature_like_nodes(120, seed=6)
    together = f(k1, k2)
    alone = np.concatenate([f(k1[i:i + 1], k2[i:i + 1])
                            for i in range(len(k1))])
    assert together.tobytes() == alone.tobytes()


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


def test_curvature_integrand_rejects_gapless_two_band_node():
    # the massless two-band symbol is gapless at the origin only; its 2 x 2
    # eigenbasis comes from the closed form, where H = 0 gives r = 0
    f = _curvature_integrand(dirac_symbol(0.0), 0.0)
    f(np.array([0.3, 2.0]), np.array([0.2, 0.0]))
    with pytest.raises(GaplessPointError, match=r"k=\(0, 0\)"):
        f(np.array([0.3, 0.0]), np.array([0.2, 0.0]))


# ---------------------------------------------------------------------------
# Chern pairings


def test_chern_of_scalar_symbol_is_zero(lap_model):
    value, resid = chern(lap_model.symbol, -1.0, tol=1e-4)
    assert abs(value) < 1e-8
    assert resid < 1e-8


@pytest.fixture
def quad_cells(monkeypatch):
    """(cells, integrand calls) of every quadrature the symbol layer runs."""
    runs = []
    quad_2d = symbol.quad_2d

    def counted(f, **kwargs):
        calls = []

        def g(k1, k2):
            calls.append(len(k1))
            return f(k1, k2)

        res = quad_2d(g, **kwargs)
        runs.append((res.cells, len(calls)))
        return res

    monkeypatch.setattr(symbol, "quad_2d", counted)
    return runs


def test_chern_fourth_order_negative_mass(quad_cells):
    from bec.models import regularized_dirac

    S = regularized_dirac(-1.0, 0.1).symbol
    value, resid = chern(S, 0.0, tol=1e-4)
    assert abs(value + 1.0) < 1e-3
    assert resid < 1e-3
    # the cell schedule of the finite-difference integrand it replaced, in
    # the integrand calls of refinement in rounds
    assert quad_cells == [(199, 20)]


# The seven pairings of the bulk-pairing benchmark at its tol 1e-6: cell
# counts and values as the full-matrix Kubo integrand with LAPACK eigenbases
# and stacked matrix products first gave them, recorded as such.  They hold
# under the occupied x empty block form with the closed-form 2 x 2 and 3 x 3
# eigenbases: every cell schedule is the same, and no value moves by more
# than 4.5e-16.  A change of the integrand's rounding must keep every cell
# schedule and move no value by more than 1e-12.  The integrand calls are
# those of refinement in rounds with four splits per call; one split per
# call took (cells - 1) / 3 of them.
BULK_PAIRINGS = [
    ("regdirac m=-1", ("regdirac", {"m": -1.0, "eps": 0.1}), None, 0.0,
     -1.0000000034578407, 568, 49),
    ("regdirac m=+1", ("regdirac", {"m": 1.0, "eps": 0.1}), None, 0.0,
     -3.4557779530070786e-09, 595, 52),
    ("dirac +1 vs -1", ("dirac", {"m": 1.0}), ("dirac", {"m": -1.0}), 0.0,
     1.000000040936854, 235, 23),
    ("dirac -1 vs +1", ("dirac", {"m": -1.0}), ("dirac", {"m": 1.0}), 0.0,
     -1.000000040936854, 235, 23),
    ("dirac m=+1", ("dirac", {"m": 1.0}), None, 0.0, 0.500000163757705, 184,
     18),
    ("laplacian", ("laplacian", {}), None, -1.0, 0.0, 4, 1),
    ("shallow", ("shallow", {"f": 1.0, "nu": 0.1}), None, 0.5,
     -2.0000000017296635, 715, 64),
]


@pytest.mark.parametrize("first, second, level, value, cells, calls",
                         [p[1:] for p in BULK_PAIRINGS],
                         ids=[p[0] for p in BULK_PAIRINGS])
def test_bulk_pairing_cell_schedules(quad_cells, first, second, level,
                                     value, cells, calls):
    from bec.models import build_model

    S = build_model(first[0], **first[1]).symbol
    with warnings.catch_warnings():
        # the massive Dirac symbol alone pairs to a half integer
        warnings.simplefilter("ignore", UserWarning)
        if second is None:
            got, _ = chern(S, level, tol=1e-6)
        else:
            S2 = build_model(second[0], **second[1]).symbol
            got, _ = relative_chern(S, S2, level, tol=1e-6)
    assert quad_cells == [(cells, calls)]
    assert abs(got - value) <= 1e-12


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
