"""Randomized invariants, derandomized through the shared hypothesis profile
(fixed example database seeds, no deadline).

These complement the fixed-value unit tests: every structural identity the
numerical layers rely on is exercised over a sampled parameter range.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyfromroots

from bec.edge import vn_unitary_family
from bec.extension import (
    _companion_roots,
    deficiency_basis,
    from_ab,
    green_identity_residual,
    krein_Q,
    vn_unitary,
)
from bec.models import dirac, laplacian, regularized_dirac, shallow_water
from bec.numerics import unwind_phase
from bec.symbol import _projection_stack

LAP = laplacian()
DIRAC = dirac(1.0)
DIRAC_IF = dirac(1.0, m_minus=-1.0)
REGD = regularized_dirac(1.0, 0.1)
SHALLOW = shallow_water(1.0, 0.1)

finite = dict(allow_nan=False, allow_infinity=False)


def mu_plus(k, z):
    r = np.sqrt(complex(k * k) - z)
    return r if r.real > 0 else -r


# ---------------------------------------------------------------------------
# phase unwinding


@given(st.lists(st.floats(-1.3, 1.3, **finite), min_size=2, max_size=60),
       st.data())
def test_unwind_concatenation_additive(steps, data):
    s = np.exp(1j * np.concatenate([[0.0], np.cumsum(steps)]))
    j = data.draw(st.integers(1, len(s) - 1))
    total = unwind_phase(s)
    assert abs(total - (unwind_phase(s[: j + 1]) + unwind_phase(s[j:]))) \
        < 1e-12
    assert abs(unwind_phase(s[::-1]) + total) < 1e-12


# ---------------------------------------------------------------------------
# polynomial roots


@given(st.integers(0, 10_000), st.integers(2, 6))
def test_poly_roots_recover_separated_roots(seed, n):
    rng = np.random.default_rng(seed)
    roots = rng.normal(size=n) + 1j * rng.normal(size=n)
    roots = np.array([r + 0.7 * j for j, r in enumerate(roots)])
    got, ok = _companion_roots((0.5 + 0.1j) * polyfromroots(roots)[None])
    assert ok[0]
    got = got[0]
    key = lambda z: (round(z.real, 6), round(z.imag, 6))
    assert np.allclose(sorted(got, key=key), sorted(roots, key=key),
                       atol=1e-7)


# ---------------------------------------------------------------------------
# symbols and projections


@given(st.floats(-4.0, 4.0, **finite), st.floats(-4.0, 4.0, **finite))
def test_symbols_hermitian_everywhere(k1, k2):
    for S in (LAP.symbol, DIRAC.symbol, REGD.symbol, SHALLOW.symbol):
        H = S(k1, k2)
        assert np.max(np.abs(H - H.conj().T)) < 1e-12


@given(st.floats(-3.0, 3.0, **finite), st.floats(-3.0, 3.0, **finite))
def test_fermi_projection_idempotent(k1, k2):
    for S in (DIRAC.symbol, REGD.symbol):
        P = _projection_stack(S, np.array([k1]), np.array([k2]), 0.0)[0]
        assert np.max(np.abs(P @ P - P)) < 1e-10
        assert np.max(np.abs(P - P.conj().T)) < 1e-10


# ---------------------------------------------------------------------------
# extension layer


@given(st.floats(-20.0, 20.0, **finite),
       st.floats(0.2, 3.0, **finite),
       st.booleans())
def test_Q_conjugation_symmetry_random_momenta(k, im, upper):
    z = complex(0.0, im if upper else -im)
    for model in (LAP, DIRAC, REGD):
        T = model.triple("halfline")
        F = model.fiber(k)
        Qp = krein_Q(T, deficiency_basis(F, z, "right"))
        Qm = krein_Q(T, deficiency_basis(F, np.conj(z), "right"))
        assert np.max(np.abs(Qm - Qp.conj().T)) < 1e-10


@given(st.floats(-20.0, 20.0, **finite),
       st.complex_numbers(max_magnitude=3.0).filter(
           lambda c: abs(c) > 0.05))
def test_Q_independent_of_basis_rescaling(k, scale):
    from bec.extension import DeficiencyBasis

    T = REGD.triple("halfline")
    basis = deficiency_basis(REGD.fiber(k), 1j, "right")
    entries = [(mu, scale * phi) for mu, phi in basis.entries][::-1]
    alt = DeficiencyBasis(basis.k, basis.z, basis.side, entries,
                          basis.order, basis.N)
    assert np.max(np.abs(krein_Q(T, basis) - krein_Q(T, alt))) < 1e-9


@given(st.floats(-10.0, 10.0, **finite))
def test_green_identity_random_momenta(k):
    for model, side in ((LAP, "halfline"), (DIRAC, "halfline"),
                        (DIRAC_IF, "interface"), (REGD, "halfline")):
        T = model.triple(side)
        assert green_identity_residual(T, model.fiber(k, side)) < 1e-8


@given(st.floats(-3.0, 3.0, **finite), st.floats(-3.0, 3.0, **finite),
       st.floats(0.3, 2.0, **finite), st.floats(-30.0, 30.0, **finite))
def test_robin_unitary_closed_form(K, ell, M, k):
    bc = LAP.make_bc("robin", K=K, ell=ell, M=M)
    U = vn_unitary(bc, LAP.triple("halfline"), LAP.fiber(k))
    w = K + ell * k
    closed = (w - M * mu_plus(k, -1j)) / (w - M * mu_plus(k, 1j))
    assert abs(U[0, 0] - closed) < 1e-9
    assert abs(abs(U[0, 0]) - 1.0) < 1e-10


@given(st.floats(-4.0, 4.0, **finite).filter(lambda a: abs(a) > 0.05),
       st.floats(-30.0, 30.0, **finite))
def test_two_band_unitary_closed_form(a, k):
    bc = DIRAC.make_bc("a", a=a)
    U = vn_unitary(bc, DIRAC.triple("halfline"), DIRAC.fiber(k))
    rho = np.sqrt(k * k + 2.0)

    def q(z):
        return (z + 1.0) / (k + rho)

    closed = (a - q(-1j)) / (a - q(1j))
    assert abs(U[0, 0] - closed) < 1e-9


@given(st.integers(0, 10_000), st.floats(-5.0, 5.0, **finite))
def test_unitary_invariant_under_invertible_row_mixing(seed, k):
    rng = np.random.default_rng(seed)
    bc = REGD.make_bc("a", a=2.0)
    A, B = bc.ab_at(k)
    C = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    C += 3.0 * np.eye(2)  # keep it comfortably invertible
    bc2 = from_ab(C @ np.asarray(A), C @ np.asarray(B))
    T = REGD.triple("halfline")
    F = REGD.fiber(k)
    assert np.max(np.abs(vn_unitary(bc, T, F) - vn_unitary(bc2, T, F))) \
        < 1e-10


@given(st.floats(-2.0, 2.0, **finite), st.floats(-2.0, 2.0, **finite))
def test_unitary_family_on_unit_circle(aplus, aminus):
    # interface conditions decoupling into two half lines stay unitary
    bc = DIRAC_IF.make_bc("decoupled", aplus=aplus, aminus=aminus)
    ks = np.linspace(-15.0, 15.0, 7)
    U = vn_unitary_family(bc, DIRAC_IF.triple("interface"),
                          DIRAC_IF.fiber_family("interface"), ks)
    lams = np.linalg.eigvals(U)
    assert np.max(np.abs(np.abs(lams) - 1.0)) < 1e-8
    assert np.max(np.abs(np.abs(np.linalg.det(U)) - 1.0)) < 1e-8
