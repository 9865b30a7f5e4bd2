"""Tests of the extension-theory layer: deficiency bases, boundary triples,
Krein-type Q functions, von Neumann unitaries and affiliation verdicts.

Closed forms used as oracles
----------------------------
* scalar second-order fiber: exponents mu = +-sqrt(k^2 - z); at k=1, z=i the
  right exponent is sqrt(1-i) = 1.09868411346781 - 0.455089860562227j and the
  Q function is -sqrt(k^2 - z).
* first-order 2x2 half-line fiber (mass m): scalar Q(z) = (k + rho)/(z - m)
  with rho = sqrt(k^2 + m^2 + 1), and U = (a + Q(-i)) / (a + Q(i)) for the
  family  psi_2(0) = a psi_1(0).
* Robin-type family on the half line: U = (K + l k - mu(-i)) / (K + l k -
  mu(i)) with mu(z) = sqrt(k^2 - z), real part positive.
* first-order interface at k=0, masses (+1, -1):
  Q(i) = (i/sqrt(2)) I - (i/2) sigma_x.
"""
import itertools

import numpy as np
import pytest

from bec.errors import (
    BoundaryOfRegularityError,
    ContractViolation,
    DegenerateExponentError,
    InadmissibleConditionError,
    NumericalFailure,
    TripleDegeneracyError,
)
from bec import extension
from bec.edge import relative_winding, winding
from bec.extension import (
    BoundaryTriple,
    _basis_entries,
    _char_poly,
    _full_jets,
    _kernel_vectors,
    _rank_deficient,
    _roots,
    _singular_values,
    _admissibility,
    _weyl,
    _krein_family,
    affiliation_check,
    formal_symmetry_defect,
    from_ab,
    green_boundary_matrix,
    green_identity_residual,
    krein_Q,
    triple_defect,
    vn_unitary,
    vn_unitary_family,
)
from bec.symbol import FiberStack
from conftest import decaying_basis
import stacked_reference as stacked

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SQRT_1_MINUS_I = 1.09868411346781 - 0.455089860562227j


def stacked_jets(T, F, zs):
    """`_full_jets` of the fibers F stacked, (n, W, dimV), and the codes."""
    J, code = _full_jets(T, [np.moveaxis(Ds, 0, -1) for Ds in F.sides],
                         F.ks, zs)
    return J.transpose(2, 0, 1), code


def mu_plus(k, z):
    """sqrt(k^2 - z) with positive real part."""
    r = np.sqrt(complex(k * k) - z)
    return r if r.real > 0 else -r


def robin_unitary(K, ell, k):
    return (K + ell * k - mu_plus(k, -1j)) / (K + ell * k - mu_plus(k, 1j))


def halfline_two_band_Q(k, z, m):
    rho = np.sqrt(k * k + m * m + 1.0)
    return (z + m) / (k + rho)


# ---------------------------------------------------------------------------
# characteristic polynomial and deficiency bases


def _char_poly_by_row(Ds, ks, zs):
    """`_char_poly` of the stacked fibers Ds at momenta ks and spectral
    points zs, set up as `_basis_entries` sets it up: (coefficients
    (n, order*N + 1) by degree, scale)."""
    order, N = Ds.shape[1] - 1, Ds.shape[2]
    E = np.moveaxis(Ds, 0, -1).copy()
    E[0, range(N), range(N)] -= zs
    scale = 1.0 + np.abs(ks) + np.abs(zs) ** (1.0 / order)
    return _char_poly(E, scale).T, scale


def _roots_by_row(c):
    """`_roots` of coefficient rows c (n, d+1) at momenta 0, 1, ...:
    (roots +-s (n, d), ok, double)."""
    s, ok, double = _roots(c.T, np.arange(len(c)))
    return np.concatenate([s, -s]).T, ok, double


def test_char_poly_scalar_second_order(lap_model):
    Ds = lap_model.fiber(1.0).sides[0]
    c, scale = _char_poly_by_row(Ds, np.array([1.0]), np.array([1j]))
    # k^2 - mu^2 - z, with the coefficients taken back from mu/scale to mu
    assert np.allclose(c[0] / scale[0] ** np.arange(3), [1.0 - 1j, 0.0, -1.0],
                       atol=1e-12)


def test_deficiency_basis_scalar_exponents(lap_model):
    F = lap_model.fiber(1.0)
    mus, phis = decaying_basis(F, 1j, "right")
    assert len(mus) == 1
    assert abs(mus[0] - SQRT_1_MINUS_I) < 1e-10
    assert abs(abs(phis[0, 0]) - 1.0) < 1e-12
    mus, _ = decaying_basis(F, 1j, "left")
    assert abs(mus[0] + SQRT_1_MINUS_I) < 1e-10


def test_deficiency_basis_two_band_amplitude(dirac_model):
    F = dirac_model.fiber(0.0)
    mus, phis = decaying_basis(F, 1j, "right")
    assert len(mus) == 1
    mu, phi = mus[0], phis[0]
    assert abs(mu - np.sqrt(2.0)) < 1e-12
    want = np.array([1.0 + 1j, np.sqrt(2.0)])
    overlap = abs(np.vdot(want, phi))
    assert abs(overlap - np.linalg.norm(want) * np.linalg.norm(phi)) < 1e-10


def test_deficiency_basis_fourth_order_exponents(regdirac_model):
    F = regdirac_model.fiber(0.0)
    mus = sorted(np.abs(decaying_basis(F, 1j, "right")[0]))
    assert np.allclose(mus, [1.30018500666136, 10.8770179253531], atol=1e-9)


def test_deficiency_basis_counts_match_at_conjugate_points(
        lap_model, dirac_model, regdirac_model):
    for model, n in ((lap_model, 1), (dirac_model, 1), (regdirac_model, 2)):
        for k in (0.5, -31.6, 1e3):
            F = model.fiber(k)
            for z in (1j, -1j):
                assert len(decaying_basis(F, z, "right")[0]) == n
                assert len(decaying_basis(F, z, "left")[0]) == n


def test_deficiency_basis_of_first_order_scalar_fiber():
    # i d/dy + 1 has one exponent at z = i, mu = -1 - i, on the left: its
    # characteristic polynomial has degree 1, a shape no edge model has,
    # and the kernel names its momentum on either side
    F = _ConstantFamily([[[1.0]], [[1j]]]).stacks([0.0])
    for side in ("right", "left"):
        with pytest.raises(ContractViolation, match=r"degree 1 .*k=\[0\.\]"):
            decaying_basis(F, 1j, side)


def test_kernel_rejects_order_zero_fiber(lap_model):
    F = _ConstantFamily([[[1.0]]]).stacks([0.0])
    with pytest.raises(ContractViolation):
        decaying_basis(F, 1j, "right")
    with pytest.raises(ContractViolation):
        vn_unitary(lap_model.make_bc("dirichlet"), lap_model.triple(), F)


def test_deficiency_basis_rejects_imaginary_axis_exponent():
    # constant-coefficient fiber with char mu^2 + 1 at z=i: exponents +-i
    F = _ConstantFamily([[[1.0 + 1j]], [[0.0]], [[1.0]]]).stacks([0.0])
    with pytest.raises(BoundaryOfRegularityError):
        decaying_basis(F, 1j, "right")


def test_jets_stack_derivatives(lap_model):
    Ds = lap_model.fiber(1.0).sides[0]
    mus, phis, J, code = _basis_entries(np.moveaxis(Ds, 0, -1),
                                        np.array([1.0]), np.array([1j]),
                                        1.0)
    assert code[0] == 0
    mu, phi, J = mus[0, 0], phis[:, 0, 0], J[..., 0]
    assert J.shape == (2, 1)
    # (phi, -mu phi), normalized to a unit column
    norm = np.sqrt(1.0 + abs(mu) ** 2) * abs(phi[0])
    assert abs(J[0, 0] - phi[0] / norm) < 1e-14
    assert abs(J[1, 0] + mu * phi[0] / norm) < 1e-14


# ---------------------------------------------------------------------------
# boundary triples and the Green identity


def test_green_boundary_matrix_scalar(lap_model):
    J = green_boundary_matrix(lap_model.fiber(0.7).sides[0][0])
    assert np.allclose(J, [[0.0, -1.0], [1.0, 0.0]])


def test_formal_symmetry_defect_zero_for_builtin_fibers(
        lap_model, dirac_model, dirac_interface_model, regdirac_model):
    assert formal_symmetry_defect(lap_model.fiber(0.3)) < 1e-14
    assert formal_symmetry_defect(dirac_model.fiber(0.3)) < 1e-14
    assert formal_symmetry_defect(
        dirac_interface_model.fiber(0.3, "interface")) < 1e-14
    assert formal_symmetry_defect(regdirac_model.fiber(0.3)) < 1e-14


def test_triple_defect_zero_for_builtin_triples(
        lap_model, dirac_model, dirac_interface_model, regdirac_model):
    cases = (
        (lap_model.triple("halfline"), lap_model.fiber(0.8)),
        (dirac_model.triple("halfline"), dirac_model.fiber(0.8)),
        (dirac_interface_model.triple("interface"),
         dirac_interface_model.fiber(0.8, "interface")),
        (regdirac_model.triple("halfline"), regdirac_model.fiber(0.8)),
    )
    for T, F in cases:
        assert triple_defect(T, F) < 1e-13


def test_green_identity_residual_small_for_builtin_triples(
        lap_model, dirac_model, dirac_interface_model, regdirac_model):
    for model, side in ((lap_model, "halfline"), (dirac_model, "halfline"),
                        (dirac_interface_model, "interface"),
                        (regdirac_model, "halfline")):
        for k in (0.5, 1.0, -2.0):
            F = model.fiber(k, side)
            assert green_identity_residual(model.triple(side), F) < 1e-8


def test_green_identity_negative_control(lap_model):
    # doubling the second trace map must break the identity
    T = lap_model.triple("halfline")
    G1, G2 = T.traces([0.0])
    bad = BoundaryTriple(T.dimV, T.side, G1[0], 2.0 * G2[0], T.order, T.N)
    assert green_identity_residual(bad, lap_model.fiber(0.5)) > 1e-2


def test_boundary_triple_rejects_bad_side(lap_model):
    T = lap_model.triple("halfline")
    G1, G2 = T.traces([0.0])
    with pytest.raises(ContractViolation):
        BoundaryTriple(T.dimV, "slab", G1[0], G2[0], T.order, T.N)


def test_boundary_triple_rejects_more_than_two_components_or_dimensions():
    # N = 3 (shallow water's size) and dimV = 3 are shapes no edge model has
    with pytest.raises(ContractViolation, match="N = 3, dimV = 1"):
        BoundaryTriple(1, "halfline", np.ones((1, 6)), np.ones((1, 6)), 2, 3)
    with pytest.raises(ContractViolation, match="N = 2, dimV = 3"):
        BoundaryTriple(3, "halfline", np.ones((3, 4)), np.ones((3, 4)), 2, 2)


# ---------------------------------------------------------------------------
# boundary conditions


def test_from_ab_polynomial_evaluation():
    A = [np.array([[1.0]]), np.array([[2.0]])]  # 1 + 2k
    B = np.array([[3.0]])
    bc = from_ab(A, B, label="affine")
    Ak, Bk = bc.ab_at(0.5)
    assert np.allclose(Ak, [[2.0]]) and np.allclose(Bk, [[3.0]])


def test_condition_coefficients_must_share_one_square_size():
    # a 1x1 A1 beside a 2x2 A0 used to be broadcast over it
    with pytest.raises(ContractViolation,
                       match=r"file\(A,B\): .* got A0 2x2, A1 1x1, B0 2x2"):
        from_ab([np.eye(2), np.array([[2.0]])], np.zeros((2, 2)),
                label="file(A,B)")
    with pytest.raises(ContractViolation, match=r"got A0 1x2, B0 1x2"):
        from_ab(np.ones((1, 2)), np.ones((1, 2)))
    assert from_ab([np.eye(2), np.eye(2)], np.eye(2)).dim == 2


def test_condition_size_must_match_the_triple(dirac_model):
    # a 2x2 interface condition on the half-plane triple (dimV = 1)
    T, fam = dirac_model.triple(), dirac_model.fiber_family()
    bc = dirac_model.bc_families["transparent"]()
    ref = dirac_model.make_bc("a", a=1.0)
    match = r"transparent: a 2x2 condition does not fit the halfline " \
        r"triple \(dimV=1\)"
    with pytest.raises(ContractViolation, match=match):
        vn_unitary(bc, T, dirac_model.fiber(0.5))
    for args in ((bc, T, fam), (ref, T, fam, bc)):
        with pytest.raises(ContractViolation, match=match):
            affiliation_check(*args)


def test_check_admissible_accepts_robin(lap_model):
    bc = lap_model.make_bc("robin", K=1.0, ell=2.0, M=1.0)
    U = vn_unitary(bc, lap_model.triple(), lap_model.fiber(0.3))
    assert abs(abs(U[0, 0]) - 1.0) < 1e-12


def test_check_admissible_rejects_non_hermitian_pairing(lap_model):
    bc = from_ab(np.array([[1.0]]), np.array([[1j]]))
    with pytest.raises(InadmissibleConditionError, match="not Hermitian"):
        vn_unitary(bc, lap_model.triple(), lap_model.fiber(0.0))


def test_check_admissible_rejects_singular_combination(lap_model):
    bc = from_ab(np.array([[1j]]), np.array([[1.0]]))
    with pytest.raises(InadmissibleConditionError, match="singular"):
        vn_unitary(bc, lap_model.triple(), lap_model.fiber(0.0))


def test_admissibility_residuals_values():
    ms, herm, bad = _admissibility(
        *from_ab(np.eye(1), np.zeros((1, 1))).ab_batch([0.0]))
    assert abs(ms[0] - 1.0) < 1e-12 and herm[0] == 0.0 and not bad[0]


# ---------------------------------------------------------------------------
# Q functions


def test_krein_Q_scalar_closed_form(lap_model):
    T = lap_model.triple("halfline")
    Q = krein_Q(T, lap_model.fiber(1.0), 1j)
    assert Q.shape == (1, 1)
    assert abs(Q[0, 0] + SQRT_1_MINUS_I) < 1e-10


def test_krein_Q_two_band_closed_form(dirac_model):
    T = dirac_model.triple("halfline")
    for k in (0.0, 0.9, -1.4):
        for z in (1j, -1j):
            Q = krein_Q(T, dirac_model.fiber(k), z)
            assert abs(Q[0, 0] - halfline_two_band_Q(k, z, 1.0)) < 1e-10


def test_krein_Q_interface_closed_form(dirac_interface_model):
    T = dirac_interface_model.triple("interface")
    Q = krein_Q(T, dirac_interface_model.fiber(0.0, "interface"), 1j)
    want = (1j / np.sqrt(2.0)) * np.eye(2) - 0.5j * SX
    assert np.max(np.abs(Q - want)) < 1e-10


def test_krein_Q_conjugation_symmetry(
        lap_model, dirac_model, regdirac_model, dirac_interface_model):
    # the unitaries take Q(-i) = Q(i)^dag: Q built from the jets at -i
    # must agree, relative to the size of Q (|Q| ~ 1e3 on regdirac at
    # |k| = 1e4), on every triple, out to the affiliation momenta
    ks = np.array([0.0, 0.3, -0.7, 1.0, -2.5,
                   1e2, -1e2, 1e3, -1e3, 1e4, -1e4])
    for model, side in ((lap_model, "halfline"), (dirac_model, "halfline"),
                        (regdirac_model, "halfline"),
                        (dirac_interface_model, "interface")):
        T, F = model.triple(side), model.fiber_family(side).stacks(ks)
        Qm = stacked._krein_batch(T, F, np.full(len(ks), -1j))
        for i in range(len(ks)):
            Qp = krein_Q(T, F[[i]], 1j)
            assert np.max(np.abs(Qm[i] - Qp.conj().T)) \
                <= 1e-10 * (1.0 + np.abs(Qp).max())
            assert np.array_equal(krein_Q(T, F[[i]], -1j), Qp.conj().T)


def test_krein_Q_independent_of_basis_scaling():
    # Q = (G2 J)(G1 J)^{-1} is unchanged when the jets J of the deficiency
    # space take another basis J R, R any invertible dimV x dimV matrix;
    # krein_Q is the one-row case of the batched Krein family
    rng = np.random.default_rng(3)
    ks = np.concatenate([np.linspace(-20.0, 20.0, 41), [1e3, -1e4]])
    for _, T, fam in _kernel_cases():
        F = fam.stacks(ks)
        G1, G2 = T.traces(ks)
        shape = (len(ks), T.dimV, T.dimV)
        R = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        Qi = _krein_family(T, F)
        for z, Q in ((1j, Qi), (-1j, Qi.conj().transpose(0, 2, 1))):
            J, code = stacked_jets(T, F, np.full(len(ks), z))
            assert not np.any(code)
            size = 1.0 + np.abs(Q).max(axis=(1, 2))
            X, Y = G1 @ J @ R, G2 @ J @ R
            QR = np.linalg.solve(X.transpose(0, 2, 1),
                                 Y.transpose(0, 2, 1)).transpose(0, 2, 1)
            assert np.all(np.abs(QR - Q).max(axis=(1, 2)) <= 1e-9 * size)
            for i in (0, 20, 42):
                assert np.array_equal(krein_Q(T, F[[i]], z), Q[i])


# ---------------------------------------------------------------------------
# von Neumann unitaries


def test_weyl_W_dirichlet_is_identity(lap_model):
    bc = lap_model.make_bc("dirichlet")
    Q = np.array([[[0.3 + 0.4j]]])
    for W in _weyl(*bc.ab_batch([0.3]), Q):
        assert np.allclose(W, [[[1.0]]])


def test_vn_unitary_dirichlet_reference_is_exactly_one(
        lap_model, regdirac_model, dirac_interface_model):
    for model, side, bc in (
            (lap_model, "halfline", lap_model.make_bc("dirichlet")),
            (regdirac_model, "halfline", regdirac_model.make_bc("dirichlet")),
            (dirac_interface_model, "interface",
             dirac_interface_model.make_bc("transparent"))):
        T = model.triple(side)
        for k in (0.0, 1.3, -200.0):
            U = vn_unitary(bc, T, model.fiber(k, side))
            assert np.array_equal(U, np.eye(T.dimV))


def test_vn_unitary_robin_closed_form(lap_model):
    bc = lap_model.make_bc("robin", K=1.0, ell=2.0, M=1.0)
    T = lap_model.triple("halfline")
    frozen = {
        0.0: -0.707106781186548 - 0.707106781186547j,
        1.0: 0.891626959040644 - 0.452770765301751j,
        -3.0: 0.999135977555805 + 0.0415607790303004j,
        50.0: 0.999999923106501 - 0.000392156847514154j,
    }
    for k, want in frozen.items():
        U = vn_unitary(bc, T, lap_model.fiber(k))
        assert abs(U[0, 0] - want) < 1e-10
        assert abs(U[0, 0] - robin_unitary(1.0, 2.0, k)) < 1e-10


def test_vn_unitary_two_band_closed_form(dirac_model):
    bc = dirac_model.make_bc("a", a=2.0)
    T = dirac_model.triple("halfline")
    frozen = {
        0.0: 0.539504286779635 + 0.841982852881457j,
        1.3: 0.93467040910528 + 0.355515437559282j,
        -1.3: -0.889460345365613 + 0.457012356531072j,
    }
    for k, want in frozen.items():
        U = vn_unitary(bc, T, dirac_model.fiber(k))
        assert abs(U[0, 0] - want) < 1e-10
        closed = ((2.0 - halfline_two_band_Q(k, -1j, 1.0))
                  / (2.0 - halfline_two_band_Q(k, 1j, 1.0)))
        assert abs(U[0, 0] - closed) < 1e-10


def test_vn_unitary_invariant_under_row_operations(lap_model):
    bc1 = lap_model.make_bc("robin", K=1.0, ell=2.0, M=1.0)
    A, B = bc1.ab_at(0.9)  # constant in this family once k is fixed
    c = 0.7 - 0.2j
    bc2 = from_ab(c * np.asarray(A), c * np.asarray(B))
    T = lap_model.triple("halfline")
    F = lap_model.fiber(0.9)
    assert np.max(np.abs(vn_unitary(bc1, T, F) - vn_unitary(bc2, T, F))) \
        < 1e-10


def _times(R, X):
    """Coefficients of R(k) X(k) for matrix polynomials R and X given by
    their coefficient lists."""
    out = [0.0] * (len(R) + len(X) - 1)
    for i, Ri in enumerate(R):
        for j, Xj in enumerate(X):
            out[i + j] = out[i + j] + Ri @ Xj
    return out


@pytest.mark.parametrize("fixture, side, family, kw", [
    ("lap_model", "halfline", "robin", {"K": 1.0, "ell": 2.0, "M": 1.0}),
    ("dirac_model", "halfline", "a", {"a": 2.0}),
    ("regdirac_model", "halfline", "a", {"a": 2.0}),
    ("regdirac_model", "halfline", "dirichlet", {}),
    ("dirac_interface_model", "interface", "decoupled",
     {"aplus": 1.0, "aminus": 1.0}),
    ("dirac_interface_model", "interface", "transparent", {}),
])
def test_vn_unitary_family_invariant_under_row_mixing(request, fixture, side,
                                                      family, kw):
    # (A, B) -> (R(k) A, R(k) B) with R(k) invertible at every k is the same
    # condition: a nonzero constant for dimV = 1, and for dimV = 2 the
    # polynomial R0 (1 + k N) with N nilpotent, whose determinant is det R0
    model = request.getfixturevalue(fixture)
    T, fam = model.triple(side), model.fiber_family(side)
    bc = model.make_bc(family, **kw)
    rng = np.random.default_rng(5)
    if T.dimV == 1:
        R = [np.array([[0.7 - 1.3j]])]
    else:
        R0, v = (rng.normal(size=s) + 1j * rng.normal(size=s)
                 for s in ((2, 2), 2))
        R = [R0, R0 @ np.outer(v, [v[1], -v[0]])]
    mixed = from_ab(*(_times(R, X) for X in bc._ab_poly))
    ks = np.concatenate([np.linspace(-30.0, 30.0, 61), [1e3, -1e3]])
    U = vn_unitary_family(bc, T, fam, ks)
    err = np.abs(vn_unitary_family(mixed, T, fam, ks) - U).max(axis=(1, 2))
    # the mixed solves lose up to the condition number of R(k)
    cond = np.linalg.cond([sum(Rj * k ** j for j, Rj in enumerate(R))
                           for k in ks])
    assert np.all(err <= 1e-12 * cond)


def test_vn_unitary_rejects_singular_W():
    # A = B = identity makes W(i) = 1 - Q singular when Q = 1
    bc = from_ab(np.array([[0.0]]), np.array([[0.0]]))
    with pytest.raises((InadmissibleConditionError, NumericalFailure)):
        from bec.models import laplacian

        model = laplacian()
        vn_unitary(bc, model.triple("halfline"), model.fiber(0.5))


def test_vn_unitary_family_names_the_momentum_of_a_singular_W(lap_model):
    # A = B = 0: W(i) = A - B Q(i) vanishes at every momentum
    zero = from_ab(0.0, 0.0)
    T, fam = lap_model.triple("halfline"), lap_model.fiber_family()
    with pytest.raises(InadmissibleConditionError,
                       match=r"W\(i\) is singular at k=0.5$"):
        vn_unitary_family(zero, T, fam, [0.5, 1.0])


# ---------------------------------------------------------------------------
# affiliation


def test_affiliation_robin_affiliated(lap_model):
    bc = lap_model.make_bc("robin", K=1.0, ell=0.5, M=1.0)
    v = affiliation_check(bc, lap_model.triple("halfline"),
                          lap_model.fiber_family())
    assert v.verdict == "affiliated"


def test_affiliation_momentum_proportional_condition_fails(lap_model):
    bc = lap_model.make_bc("robin", K=0.0, ell=1.0, M=1.0)
    v = affiliation_check(bc, lap_model.triple("halfline"),
                          lap_model.fiber_family())
    assert v.verdict == "not-affiliated"
    assert "+" in v.direction


def test_affiliation_fourth_order_family_boundary_cases(regdirac_model):
    T = regdirac_model.triple("halfline")
    fam = regdirac_model.fiber_family()
    ref = regdirac_model.reference_bc["halfline"]
    for a in (1.0, -1.0):
        v = affiliation_check(regdirac_model.make_bc("a", a=a), T, fam,
                              bc_ref=ref)
        assert v.verdict != "affiliated"
    v = affiliation_check(regdirac_model.make_bc("a", a=2.0), T, fam,
                          bc_ref=ref)
    assert v.verdict == "affiliated"


def _evidence_per_condition(bc, T, fam, bc_ref):
    """The affiliation evidence with every unitary computed on its own."""
    evidence = {}
    for sign, key in ((1.0, "+"), (-1.0, "-")):
        rs = []
        for kap in (1e2, 1e3, 1e4):
            F = fam.stacks([sign * kap])
            U = vn_unitary(bc, T, F)
            if bc_ref is not None:
                U = U @ np.linalg.inv(vn_unitary(bc_ref, T, F))
            rs.append(float(np.linalg.norm(U - np.eye(T.dimV), 2)))
        evidence[key] = rs
    return evidence


def test_affiliation_shares_krein_matrices_between_conditions(
        monkeypatch, lap_model, regdirac_model, dirac_interface_model):
    import bec.extension as ext

    cases = (
        (lap_model, "halfline", lap_model.make_bc("robin", K=1.0, ell=2.0,
                                                  M=1.0), None),
        (regdirac_model, "halfline", regdirac_model.make_bc("a", a=2.0),
         regdirac_model.make_bc("dirichlet")),
        (dirac_interface_model, "interface",
         dirac_interface_model.make_bc("decoupled", aplus=1.0, aminus=1.0),
         dirac_interface_model.make_bc("transparent")),
    )
    full_jets = ext._full_jets
    calls = []

    def counted(T, sides, ks, zs):
        calls.append((list(ks), set(np.asarray(zs).tolist())))
        return full_jets(T, sides, ks, zs)

    for model, side, bc, ref in cases:
        T, fam = model.triple(side), model.fiber_family(side)
        want = _evidence_per_condition(bc, T, fam, ref)
        calls.clear()
        monkeypatch.setattr(ext, "_full_jets", counted)
        v = affiliation_check(bc, T, fam, bc_ref=ref)
        monkeypatch.setattr(ext, "_full_jets", full_jets)
        assert v.evidence == want
        # one jet batch over the six momenta, at z = i only
        assert calls == [([1e2, 1e3, 1e4, -1e2, -1e3, -1e4], {1j})]


def test_affiliation_names_the_first_inadmissible_momentum(lap_model):
    # A B^dag = 1 + ik is not Hermitian at any of the six momenta
    bc = from_ab([np.eye(1), 1j * np.eye(1)], np.eye(1))
    with pytest.raises(InadmissibleConditionError,
                       match=r"not Hermitian at k=100 "):
        affiliation_check(bc, lap_model.triple("halfline"),
                          lap_model.fiber_family())


def test_affiliation_checks_the_reference_condition(lap_model):
    bc = lap_model.make_bc("robin", K=1.0, ell=0.5, M=1.0)
    with pytest.raises(InadmissibleConditionError):
        affiliation_check(bc, lap_model.triple("halfline"),
                          lap_model.fiber_family(),
                          bc_ref=from_ab(np.array([[0.0]]),
                                         np.array([[0.0]])))


# ---------------------------------------------------------------------------
# reason codes of the deficiency kernel


class _ConstantFamily:
    """The fibers of a constant-coefficient operator, equal at every
    momentum, as `FiberFamily` gives them."""

    def __init__(self, Ds):
        self.Ds = np.array(Ds, dtype=complex)

    def stacks(self, ks):
        return FiberStack(ks, [np.repeat(self.Ds[None], len(ks), axis=0)])


def _laplacian_like_triple(G1):
    return BoundaryTriple(1, "halfline", np.array([G1], dtype=complex),
                          np.array([[0.0, 1.0]], dtype=complex), 2, 1)


_EYE = np.eye(2)
_FAILING_BASES = [
    # exponents +-i at z = i: char 1 + i + mu^2 - z
    pytest.param([[[1.0 + 1j]], [[0.0]], [[1.0]]],
                 _laplacian_like_triple([1.0, 0.0]),
                 BoundaryOfRegularityError, id="imaginary-axis exponent"),
    # diag(mu^2 - 1 - z) at z = i: the double nu = 1 + i, two coinciding
    # pairs of exponents
    pytest.param([-_EYE, 0.0 * _EYE, _EYE],
                 BoundaryTriple(2, "halfline", np.eye(2, 4), np.eye(2, 4, 2),
                                2, 2),
                 DegenerateExponentError, id="coinciding exponents"),
    # G1 vanishes on the deficiency space of the Laplacian fiber
    pytest.param([[[1.0]], [[0.0]], [[-1.0]]],
                 _laplacian_like_triple([0.0, 0.0]),
                 TripleDegeneracyError, id="G1-singular triple"),
]


@pytest.mark.parametrize("Ds, T, error", _FAILING_BASES)
def test_reason_codes_raise_the_same_error_per_point_and_batched(Ds, T,
                                                                 error):
    fam = _ConstantFamily(Ds)
    bc = from_ab(np.eye(T.dimV), np.zeros((T.dimV, T.dimV)))
    F = fam.stacks([0.5])
    with pytest.raises(error):
        krein_Q(T, F, 1j)
    with pytest.raises(error):
        vn_unitary(bc, T, F)
    with pytest.raises(error):
        vn_unitary_family(bc, T, fam, [0.5, 2.0])
    with pytest.raises(error):
        winding(bc, T, fam)
    with pytest.raises(error):
        relative_winding(bc, bc, T, fam)


def test_fibers_the_kernel_does_not_take_raise_naming_their_momentum():
    # an odd mu term, and a first-order scalar fiber of degree 1
    from bec.edge import edge_eigenvalues
    from bec.symbol import GapWindow

    bc = from_ab(np.eye(1), np.zeros((1, 1)))
    cases = [(_ConstantFamily([[[1.0]], [[0.3]], [[-1.0]]]),
              _laplacian_like_triple([1.0, 0.0])),
             (_ConstantFamily([[[1.0]], [[1j]]]),
              BoundaryTriple(1, "halfline", np.ones((1, 1)),
                             np.zeros((1, 1)), 1, 1))]
    for fam, T in cases:
        with pytest.raises(ContractViolation, match=r"at k=\[0\.5"):
            vn_unitary(bc, T, fam.stacks([0.5]))
        with pytest.raises(ContractViolation, match=r"at k=\[0\.5"):
            edge_eigenvalues(bc, T, fam.stacks([0.5]), GapWindow(-0.5, 0.5))
        with pytest.raises(ContractViolation, match=r"k=\[-10000\. "):
            winding(bc, T, fam)


def test_triple_of_wrong_dimension_raises_everywhere(lap_model):
    # the Laplacian fiber has a one-dimensional deficiency space
    from bec.edge import edge_eigenvalues
    from bec.symbol import GapWindow

    T = BoundaryTriple(2, "halfline", np.eye(2), np.eye(2)[::-1], 2, 1)
    bc = from_ab(np.eye(2), np.zeros((2, 2)))
    F = lap_model.fiber(0.5)
    match = "deficiency space has dimension 1, dimV=2"
    with pytest.raises(TripleDegeneracyError, match=match):
        vn_unitary(bc, T, F)
    with pytest.raises(TripleDegeneracyError, match=match):
        vn_unitary_family(bc, T, lap_model.fiber_family(), [0.5, 2.0])
    with pytest.raises(TripleDegeneracyError, match=match):
        edge_eigenvalues(bc, T, F, GapWindow(-5.0, 0.0))
    with pytest.raises(TripleDegeneracyError, match=match):
        winding(bc, T, lap_model.fiber_family())
    with pytest.raises(TripleDegeneracyError, match=match):
        relative_winding(bc, bc, T, lap_model.fiber_family())
    with pytest.raises(TripleDegeneracyError, match=match):
        green_identity_residual(T, F)


def test_rank_check_two_column_form_matches_svd():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(40, 4)) + 1j * rng.normal(size=(40, 4))
    b = rng.normal(size=(40, 4)) + 1j * rng.normal(size=(40, 4))
    # second columns at distances 10^-14 ... 1 from a multiple of the first
    eps = np.logspace(-14, 0, 40)[:, None]
    J = np.stack([a, (0.3 - 0.8j) * a + eps * b], axis=2)
    J /= np.linalg.norm(J, axis=1, keepdims=True)
    smin = np.linalg.svd(J, compute_uv=False)[:, -1]
    deficient = _rank_deficient(J.transpose(1, 2, 0))
    assert np.array_equal(deficient, smin <= 1e-10)
    assert 0 < np.sum(deficient) < len(J)
    assert not np.any(_rank_deficient(J[:, :, :1].transpose(1, 2, 0)))


# ---------------------------------------------------------------------------
# closed-form kernels against LAPACK references


def _set_distance(x, y):
    """Largest distance between the roots x and y (d,), matched as sets."""
    return min(np.max(np.abs(x - y[list(p)]))
               for p in itertools.permutations(range(len(y))))


def _even_polynomials(rng):
    """Coefficient rows of random even polynomials of degree 2 and 4, with
    their exact roots +-sqrt(nu): generic, |4ac| << |b|^2 (nu spread by
    1e6), and a zero constant term."""
    def unit():
        return rng.normal() + 1j * rng.normal()

    polys = []
    for _ in range(30):
        a, nu = unit(), unit()
        polys.append(([-a * nu, 0.0, a], [nu]))
        for n1, n2 in ((unit(), unit()), (1e-3 * unit(), 1e3 * unit()),
                       (0.0, unit())):
            polys.append(([a * n1 * n2, 0.0, -a * (n1 + n2), 0.0, a],
                          [n1, n2]))
    return [(np.array([c], dtype=complex),
             np.concatenate([np.sqrt(nu), -np.sqrt(nu)]).astype(complex))
            for c, nu in polys]


def test_roots_of_even_polynomials_match_companion_roots():
    for c, exact in _even_polynomials(np.random.default_rng(11)):
        got, ok, double = _roots_by_row(c)
        ref, ref_ok = stacked._companion_roots(c)
        size = np.abs(exact).max()
        assert ok[0] and ref_ok[0]
        assert _set_distance(got[0], ref[0]) <= 1e-12 * size
        assert _set_distance(got[0], exact) <= 1e-12 * size
        # a zero constant term gives nu = 0: a double root mu = 0, not a
        # double nu
        assert not double[0]


def test_roots_reject_odd_and_sextic_polynomials():
    # even rows of degree 2 and 4 pass, an odd term above _EVEN_TOL of the
    # largest coefficient or a degree of 6 raises, naming the momenta
    rng = np.random.default_rng(12)
    for d in (2, 4, 6):
        c = rng.normal(size=(5, d + 1)) + 1j * rng.normal(size=(5, d + 1))
        c[:, 1::2] = 0.0
        if d < 6:
            got, ref = _roots_by_row(c)[0], stacked._companion_roots(c)[0]
            assert all(_set_distance(x, y) <= 1e-12 for x, y in zip(got, ref))
            c[3, 1] = 2e-12 * np.abs(c[3]).max()
        match = r"at k=\[0\. 1\. 2\. 3\. 4\.\]" if d == 6 else r"k=\[3\.\]"
        with pytest.raises(ContractViolation, match=match):
            _roots_by_row(c)


def test_roots_of_a_row_do_not_depend_on_its_batch():
    # a batch of even quartics gives every row the roots it gets alone,
    # exact +-sqrt(nu) pairs
    c = np.array([row[0][0] for row in _even_polynomials(
        np.random.default_rng(13)) if row[0].shape[1] == 5][:6])
    got = _roots_by_row(c)[0]
    for i in range(len(c)):
        assert np.array_equal(got[i], _roots_by_row(c[i:i + 1])[0][0])
    assert np.array_equal(got[:, :2], -got[:, 2:])


def test_double_nu_has_the_coinciding_exponents_code():
    # diag(mu^2 - 1 - i) at k = 0, z = i: (nu - 1 - i)^2, a double nu whose
    # companion roots split by sqrt(eps), past _CLUSTER_TOL
    eye = np.eye(2)
    Ds = np.array([[-eye, 0.0 * eye, eye]], dtype=complex)
    for sign in (1.0, -1.0):
        code = _basis_entries(np.moveaxis(Ds, 0, -1), np.array([0.0]),
                              np.array([1j]), sign)[3]
        assert code[0] == extension._DEGENERATE
    with pytest.raises(DegenerateExponentError):
        decaying_basis(_ConstantFamily(Ds[0]).stacks([0.5]), 1j, "right")


def test_kernel_vectors_of_singular_two_by_two_matrices():
    rng = np.random.default_rng(14)
    u = rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2))
    v = rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2))
    u[0] = [0.0, 1.0 - 2.0j]                  # a zero first row
    u[1] = [1e-7, 1.0]                        # one row far smaller
    C = u[:, :, None] * v[:, None, :]

    def kernel_vectors(C):
        return _kernel_vectors(C.transpose(1, 2, 0)).T

    phi = kernel_vectors(C)
    size = np.linalg.norm(C, 2, axis=(1, 2))
    assert np.allclose(np.linalg.norm(phi, axis=1), 1.0, rtol=0, atol=1e-15)
    assert np.all(np.linalg.norm(np.einsum("nij,nj->ni", C, phi), axis=1)
                  <= 1e-14 * size)
    # nearly singular: the row of larger norm leaves a residual of about
    # sigma_min, as the last singular vector does
    E = rng.normal(size=(50, 2, 2)) + 1j * rng.normal(size=(50, 2, 2))
    C = C + 1e-9 * E
    smin = np.linalg.svd(C, compute_uv=False)[:, -1]
    resid = np.linalg.norm(np.einsum("nij,nj->ni", C, kernel_vectors(C)),
                           axis=1)
    assert np.all(resid <= 2.0 * smin)
    zero = kernel_vectors(np.zeros((1, 2, 2), dtype=complex))
    assert np.array_equal(zero, [[1.0, 0.0]])
    assert np.array_equal(kernel_vectors(np.zeros((3, 1, 1))),
                          np.ones((3, 1)))


@pytest.mark.parametrize("p", [1, 2])
def test_singular_values_match_lapack(p):
    rng = np.random.default_rng(15 + p)
    M = rng.normal(size=(200, p, p)) + 1j * rng.normal(size=(200, p, p))
    u = rng.normal(size=(40, p)) + 1j * rng.normal(size=(40, p))
    unitary = np.linalg.qr(M[:40])[0]
    stacks = [M, u[:, :, None] * u.conj()[:, None, :],
              np.zeros((3, p, p), dtype=complex), unitary,
              unitary * np.array([1.0, 1.0 + 1e-9])[:p]]
    for s in (1e150, 1e-150, 1e200, 1e-200):
        stacks += [s * M[:20], s * stacks[1][:20]]
    for X in stacks:
        ref = np.linalg.svd(X, compute_uv=False)
        got = _singular_values(X.transpose(1, 2, 0)).T
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 1e-14 * ref[:, :1])


def _interpolated_char_poly(Ds, ks, zs):
    """Characteristic polynomials in x = mu/scale, as `_char_poly`, by
    interpolation: LAPACK determinants of the characteristic matrices at
    the order*N + 1 Chebyshev nodes mu = scale x_t, then a Vandermonde
    solve.  Returns (coefficients by degree, scale)."""
    order, N = Ds.shape[1] - 1, Ds.shape[2]
    d = order * N
    scale = 1.0 + np.abs(ks) + np.abs(zs) ** (1.0 / order)
    base = np.cos(np.pi * (2 * np.arange(d + 1) + 1) / (2.0 * (d + 1)))
    dets = np.linalg.det(stacked._char_matrices(Ds, zs,
                                                scale[:, None] * base))
    V = np.vander(base.astype(complex), d + 1, increasing=True)
    return np.linalg.solve(V, dets.T).T, scale


def _char_poly_cases():
    """(Ds, ks, zs) params: random Hermitian coefficient stacks of sizes
    N = 1, 2 and orders 1, 2, and every shipped edge fiber, at 61 momenta
    and spectral points +-i and real energies."""
    from bec.models import build_model

    rng = np.random.default_rng(8)
    cases = []
    for N, order in itertools.product((1, 2), (1, 2)):
        X = (rng.normal(size=(40, order + 1, N, N))
             + 1j * rng.normal(size=(40, order + 1, N, N)))
        Ds = X + X.conj().transpose(0, 1, 3, 2)
        ks = 10.0 * rng.normal(size=40)
        zs = rng.normal(size=40) + 1j * rng.normal(size=40)
        cases.append(pytest.param(Ds, ks, zs,
                                  id="random N=%d order=%d" % (N, order)))
    ks = np.linspace(-30.0, 30.0, 61)
    zs = np.resize([1j, -1j, -0.5, 0.25, 3.0], len(ks))
    models = {"laplacian": build_model("laplacian"),
              "dirac": build_model("dirac", m=1.0),
              "regdirac": build_model("regdirac", m=-1.0, eps=0.1),
              "interface": build_model("dirac", m=1.0, m_minus=-1.0)}
    for name, model in models.items():
        side = "interface" if name == "interface" else "halfline"
        for i, S in enumerate(model.side_symbols(side)):
            cases.append(pytest.param(S.fiber_stack(ks), ks, zs,
                                      id="%s side %d" % (name, i)))
    return cases


@pytest.mark.parametrize("Ds, ks, zs", _char_poly_cases())
def test_char_poly_matches_interpolation(Ds, ks, zs):
    # the expansion from the entries agrees with the interpolated
    # polynomial to 1e-12 of each row's largest coefficient
    got, scale = _char_poly_by_row(Ds, ks, zs)
    want, want_scale = _interpolated_char_poly(Ds, ks, zs)
    assert got.shape == want.shape == (len(ks), Ds.shape[2]
                                       * (Ds.shape[1] - 1) + 1)
    assert np.array_equal(scale, want_scale)
    size = np.abs(want).max(axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-12 * size)


def _reference_basis(Ds, ks, zs, side, expect):
    """The deficiency kernel with LAPACK at every step: the interpolated
    characteristic polynomial, the companion roots of every polynomial and
    an SVD per amplitude, under the checks of `_basis_entries` less the
    discriminant test.  Returns (normalized jets, code)."""
    order = Ds.shape[1] - 1
    d = order * Ds.shape[2]
    coeffs, scale = _interpolated_char_poly(Ds, ks, zs)
    roots, lead_ok = stacked._companion_roots(coeffs)
    roots = roots * scale[:, None]
    on_axis = np.any(np.abs(roots.real) < extension._REAL_MARGIN
                     * (1.0 + np.abs(roots)), axis=1)
    pair = np.abs(roots[:, :, None] - roots[:, None, :]) + 1e30 * np.eye(d)
    clustered = ~(pair.min(axis=(1, 2)) >= extension._CLUSTER_TOL
                  * (1.0 + np.abs(roots).max(axis=1)))
    good = roots.real > 0 if side == "right" else roots.real < 0
    idx = np.lexsort((np.where(good, roots.imag, 0.0),
                      np.where(good, roots.real, 1e30)), axis=-1)
    mus = np.take_along_axis(roots, idx, axis=1)[:, :expect]
    Cm = stacked._char_matrices(Ds, zs, mus)
    phis = np.linalg.svd(Cm)[2][..., -1, :].conj()
    resid = np.abs(np.einsum("npij,npj->npi", Cm, phis)).max(axis=(1, 2),
                                                             initial=0.0)
    mumax = np.maximum(1.0, np.abs(mus)).max(axis=1, initial=1.0)
    tscale = np.abs(zs) + sum(np.abs(Ds[:, j]).max(axis=(1, 2)) * mumax ** j
                              for j in range(order + 1))
    J = stacked._jets_batch(mus, phis, order)
    code = np.select(
        [~lead_ok, on_axis, clustered, good.sum(axis=1) != expect,
         resid > extension._RESID_TOL * (1.0 + tscale),
         stacked._rank_deficient(J)],
        [4, 1, 2, 3, 4, 2], 0)
    return J, code


def _reference_full_jets(T, F, zs):
    sides = [_reference_basis(Ds, F.ks, zs, side,
                              ((Ds.shape[1] - 1) * Ds.shape[2]) // 2)
             for Ds, side in zip(F.sides, ("right", "left"))]
    code = sides[0][1]
    if len(sides) == 2:
        code = np.where(code != 0, code, sides[1][1])
    return stacked._triple_layout(T, [J for J, _ in sides]), code


def _kernel_cases():
    from bec.models import build_model

    lap, dirac = build_model("laplacian"), build_model("dirac", m=1.0)
    reg = build_model("regdirac", m=-1.0, eps=0.1)
    iface = build_model("dirac", m=1.0, m_minus=-1.0)
    return [("laplacian", lap.triple(), lap.fiber_family()),
            ("dirac", dirac.triple(), dirac.fiber_family()),
            ("regdirac", reg.triple(), reg.fiber_family()),
            ("interface", iface.triple("interface"),
             iface.fiber_family("interface"))]


@pytest.mark.parametrize("name, T, fam", _kernel_cases(),
                         ids=[case[0] for case in _kernel_cases()])
def test_full_jets_match_the_companion_svd_reference(name, T, fam):
    k, lam = np.meshgrid(np.linspace(-12.0, 12.0, 25),
                         np.linspace(-3.0, 3.0, 61))
    ks = np.concatenate([k.ravel(), [0.0, 1.5, -40.0, 0.0, 1.5, -40.0]])
    zs = np.concatenate([lam.ravel(), [1j, 1j, 1j, -1j, -1j, -1j]])
    F = fam.stacks(ks)
    J, code = stacked_jets(T, F, zs)
    J_ref, code_ref = _reference_full_jets(T, F, zs)
    assert np.array_equal(code, code_ref)
    assert np.any(code == 0) and np.any(code != 0)
    for j in range(J.shape[2]):
        a, b = J_ref[code == 0, :, j], J[code == 0, :, j]
        g = np.einsum("ni,ni->n", a.conj(), b)
        phase = (g / np.abs(g))[:, None]
        assert np.max(np.abs(b - phase * a)) <= 1e-10
