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
import numpy as np
import pytest

from bec.errors import (
    BoundaryOfRegularityError,
    ContractViolation,
    DegenerateExponentError,
    InadmissibleConditionError,
    NumericalFailure,
    TripleDegeneracyError,
    UnsupportedConversionError,
)
from bec.extension import (
    BoundaryTriple,
    _char_poly,
    _jets_batch,
    _rank_deficient,
    _admissibility,
    _weyl,
    affiliation_check,
    deficiency_basis,
    formal_symmetry_defect,
    from_ab,
    from_klm,
    green_boundary_matrix,
    green_identity_residual,
    krein_Q,
    triple_defect,
    vn_unitary,
)
from bec.symbol import FiberStack, fiberize

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SQRT_1_MINUS_I = 1.09868411346781 - 0.455089860562227j


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


def test_char_poly_scalar_second_order(lap_model):
    Ds = lap_model.fiber(1.0).sides[0]
    c, scale = _char_poly(Ds, np.array([1.0]), np.array([1j]))
    # k^2 - mu^2 - z, with the coefficients taken back from mu/scale to mu
    assert np.allclose(c[0] / scale[0] ** np.arange(3), [1.0 - 1j, 0.0, -1.0],
                       atol=1e-12)


def test_deficiency_basis_scalar_exponents(lap_model):
    F = lap_model.fiber(1.0)
    right = deficiency_basis(F, 1j, "right")
    assert len(right.entries) == 1
    mu, phi = right.entries[0]
    assert abs(mu - SQRT_1_MINUS_I) < 1e-10
    assert abs(abs(phi[0]) - 1.0) < 1e-12
    left = deficiency_basis(F, 1j, "left")
    assert abs(left.entries[0][0] + SQRT_1_MINUS_I) < 1e-10


def test_deficiency_basis_two_band_amplitude(dirac_model):
    F = dirac_model.fiber(0.0)
    basis = deficiency_basis(F, 1j, "right")
    assert len(basis.entries) == 1
    mu, phi = basis.entries[0]
    assert abs(mu - np.sqrt(2.0)) < 1e-12
    want = np.array([1.0 + 1j, np.sqrt(2.0)])
    overlap = abs(np.vdot(want, phi))
    assert abs(overlap - np.linalg.norm(want) * np.linalg.norm(phi)) < 1e-10


def test_deficiency_basis_fourth_order_exponents(regdirac_model):
    F = regdirac_model.fiber(0.0)
    basis = deficiency_basis(F, 1j, "right")
    mus = sorted(abs(mu) for mu, _ in basis.entries)
    assert np.allclose(mus, [1.30018500666136, 10.8770179253531], atol=1e-9)


def test_deficiency_basis_counts_match_at_conjugate_points(
        lap_model, dirac_model, regdirac_model):
    for model, n in ((lap_model, 1), (dirac_model, 1), (regdirac_model, 2)):
        for k in (0.5, -31.6, 1e3):
            F = model.fiber(k)
            for z in (1j, -1j):
                assert len(deficiency_basis(F, z, "right").entries) == n
                assert len(deficiency_basis(F, z, "left").entries) == n


def test_deficiency_basis_rejects_real_point(lap_model):
    with pytest.raises(ContractViolation):
        deficiency_basis(lap_model.fiber(1.0), 0.5, "right")


def test_deficiency_basis_of_first_order_scalar_fiber():
    # i d/dy + 1 has one exponent at z = i, mu = -1 - i, on the left.  The
    # kernel expects order * N // 2 = 0 solutions per side, so the right
    # basis is empty and the left one has the wrong count: the deficiency
    # indices differ, and no boundary triple exists
    F = _ConstantFamily([[[1.0]], [[1j]]])(0.0)
    assert deficiency_basis(F, 1j, "right").entries == []
    with pytest.raises(TripleDegeneracyError):
        deficiency_basis(F, 1j, "left")


def test_kernel_rejects_order_zero_fiber(lap_model):
    F = _ConstantFamily([[[1.0]]])(0.0)
    with pytest.raises(ContractViolation):
        deficiency_basis(F, 1j, "right")
    with pytest.raises(ContractViolation):
        vn_unitary(lap_model.make_bc("dirichlet"), lap_model.triple(), F)


def test_deficiency_basis_rejects_imaginary_axis_exponent():
    # constant-coefficient fiber with char mu^2 + 1 at z=i: exponents +-i
    F = _ConstantFamily([[[1.0 + 1j]], [[0.0]], [[1.0]]])(0.0)
    with pytest.raises(BoundaryOfRegularityError):
        deficiency_basis(F, 1j, "right")


def test_jets_stack_derivatives(lap_model):
    basis = deficiency_basis(lap_model.fiber(1.0), 1j, "right")
    mu, phi = basis.entries[0]
    J = _jets_batch(np.array([[mu]]), phi[None, None], 2)[0]
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


def test_klm_to_ab_scalar_model():
    A, B = from_klm("laplacian", 1.0, 0.0, 0.0).ab_at(0.7)
    assert np.allclose(A, [[1.0]]) and np.allclose(B, [[0.0]])
    A, B = from_klm("laplacian", 0.0, 0.0, 1.0).ab_at(0.7)
    assert np.allclose(A, [[0.0]]) and np.allclose(B, [[-1.0]])


def test_klm_conversion_is_exactly_the_robin_family(lap_model):
    # K psi + L psi_x + M psi_y with L = i ell is A = K + ell k, B = -M
    ks = np.linspace(-30.0, 30.0, 50)
    for K, ell, M in ((1.0, 2.0, 1.0), (-1.0, 0.5, 3.0), (0.0, -1.0, 1.0)):
        robin = lap_model.make_bc("robin", K=K, ell=ell, M=M)
        klm = from_klm("laplacian", K, 1j * ell, M)
        for X, Y in zip(klm.ab_batch(ks), robin.ab_batch(ks)):
            assert np.array_equal(X, Y)


def test_from_klm_rejects_unknown_tag_and_missing_eps():
    with pytest.raises(UnsupportedConversionError):
        from_klm("dirac", 1.0, 0.0, 0.0)
    with pytest.raises(ContractViolation):
        from_klm("regdirac", 1.0, 0.0, 0.0)


def test_klm_route_agrees_with_direct_family(regdirac_model):
    # K - ikL = diag(1, -ak) with a=2, M = diag(0,1) encodes the same
    # extension as the shipped family at a=2, so the unitaries must agree.
    a, eps = 2.0, 0.1
    bc_klm = from_klm("regdirac", np.diag([1.0, 0.0]),
                      np.diag([0.0, -1j * a]), np.diag([0.0, 1.0]), eps=eps)
    bc_fam = regdirac_model.make_bc("a", a=a)
    T = regdirac_model.triple("halfline")
    for k in (0.0, 0.9, -1.7):
        F = regdirac_model.fiber(k)
        U1 = vn_unitary(bc_klm, T, F)
        U2 = vn_unitary(bc_fam, T, F)
        assert np.max(np.abs(U1 - U2)) < 1e-10


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
    basis = deficiency_basis(lap_model.fiber(1.0), 1j, "right")
    Q = krein_Q(T, basis)
    assert Q.shape == (1, 1)
    assert abs(Q[0, 0] + SQRT_1_MINUS_I) < 1e-10


def test_krein_Q_two_band_closed_form(dirac_model):
    T = dirac_model.triple("halfline")
    for k in (0.0, 0.9, -1.4):
        for z in (1j, -1j):
            basis = deficiency_basis(dirac_model.fiber(k), z, "right")
            Q = krein_Q(T, basis)
            assert abs(Q[0, 0] - halfline_two_band_Q(k, z, 1.0)) < 1e-10


def test_krein_Q_interface_closed_form(dirac_interface_model):
    T = dirac_interface_model.triple("interface")
    plus, minus = (fiberize(S, 0.0) for S in
                   dirac_interface_model.side_symbols("interface"))
    bases = (deficiency_basis(plus, 1j, "right"),
             deficiency_basis(minus, 1j, "left"))
    Q = krein_Q(T, bases)
    want = (1j / np.sqrt(2.0)) * np.eye(2) - 0.5j * SX
    assert np.max(np.abs(Q - want)) < 1e-10


def test_krein_Q_conjugation_symmetry(
        lap_model, dirac_model, regdirac_model, dirac_interface_model):
    for model, k in ((lap_model, 1.0), (dirac_model, 0.7),
                     (regdirac_model, 0.3)):
        T = model.triple("halfline")
        F = model.fiber(k)
        Qp = krein_Q(T, deficiency_basis(F, 1j, "right"))
        Qm = krein_Q(T, deficiency_basis(F, -1j, "right"))
        assert np.max(np.abs(Qm - Qp.conj().T)) < 1e-10
    T = dirac_interface_model.triple("interface")
    plus, minus = (fiberize(S, 0.5) for S in
                   dirac_interface_model.side_symbols("interface"))
    Qp = krein_Q(T, (deficiency_basis(plus, 1j, "right"),
                     deficiency_basis(minus, 1j, "left")))
    Qm = krein_Q(T, (deficiency_basis(plus, -1j, "right"),
                     deficiency_basis(minus, -1j, "left")))
    assert np.max(np.abs(Qm - Qp.conj().T)) < 1e-10


def test_krein_Q_independent_of_basis_scaling(regdirac_model):
    from bec.extension import DeficiencyBasis

    T = regdirac_model.triple("halfline")
    F = regdirac_model.fiber(0.6)
    basis = deficiency_basis(F, 1j, "right")
    Q1 = krein_Q(T, basis)
    # rescale the amplitudes and swap the entry order
    entries = [(mu, (0.3 - 1.7j) * phi) for mu, phi in basis.entries][::-1]
    rescaled = DeficiencyBasis(basis.k, basis.z, basis.side, entries,
                               basis.order, basis.N)
    Q2 = krein_Q(T, rescaled)
    assert np.max(np.abs(Q1 - Q2)) < 1e-9


# ---------------------------------------------------------------------------
# von Neumann unitaries


def test_weyl_W_dirichlet_is_identity(lap_model):
    bc = lap_model.make_bc("dirichlet")
    Q = np.array([[[0.3 + 0.4j]]])
    for W in _weyl(*bc.ab_batch([0.3]), (Q, Q.conj())):
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


def test_vn_unitary_rejects_singular_W():
    # A = B = identity makes W(i) = 1 - Q singular when Q = 1
    bc = from_ab(np.array([[0.0]]), np.array([[0.0]]))
    with pytest.raises((InadmissibleConditionError, NumericalFailure)):
        from bec.models import laplacian

        model = laplacian()
        vn_unitary(bc, model.triple("halfline"), model.fiber(0.5))


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
            F = fam(sign * kap)
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
    krein = ext._krein_family
    calls = []

    def counted(T, F):
        calls.append(list(F.ks))
        return krein(T, F)

    for model, side, bc, ref in cases:
        T, fam = model.triple(side), model.fiber_family(side)
        want = _evidence_per_condition(bc, T, fam, ref)
        calls.clear()
        monkeypatch.setattr(ext, "_krein_family", counted)
        v = affiliation_check(bc, T, fam, bc_ref=ref)
        monkeypatch.setattr(ext, "_krein_family", krein)
        assert v.evidence == want
        assert calls == [[1e2, 1e3, 1e4, -1e2, -1e3, -1e4]]


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

    def __call__(self, k):
        return self.stacks([k])

    def stacks(self, ks):
        return FiberStack(ks, [np.repeat(self.Ds[None], len(ks), axis=0)])


def _laplacian_like_triple(G1):
    return BoundaryTriple(1, "halfline", np.array([G1], dtype=complex),
                          np.array([[0.0, 1.0]], dtype=complex), 2, 1)


_FAILING_BASES = [
    # exponents +-i at z = i: char 1 + i + mu^2 - z
    pytest.param([[[1.0 + 1j]], [[0.0]], [[1.0]]], [1.0, 0.0],
                 BoundaryOfRegularityError, id="imaginary-axis exponent"),
    # the double exponent mu = 2 at z = i: char (mu - 2)^2 + i - z
    pytest.param([[[4.0 + 1j]], [[4.0]], [[1.0]]], [1.0, 0.0],
                 DegenerateExponentError, id="coinciding exponents"),
    # G1 vanishes on the deficiency space of the Laplacian fiber
    pytest.param([[[1.0]], [[0.0]], [[-1.0]]], [0.0, 0.0],
                 TripleDegeneracyError, id="G1-singular triple"),
]


@pytest.mark.parametrize("Ds, G1, error", _FAILING_BASES)
def test_reason_codes_raise_the_same_error_per_point_and_batched(Ds, G1,
                                                                 error):
    from bec.edge import vn_unitary_family

    fam = _ConstantFamily(Ds)
    T = _laplacian_like_triple(G1)
    bc = from_ab(np.eye(1), np.zeros((1, 1)))
    with pytest.raises(error):
        krein_Q(T, deficiency_basis(fam(0.5), 1j, "right"))
    with pytest.raises(error):
        vn_unitary(bc, T, fam(0.5))
    with pytest.raises(error):
        vn_unitary_family(bc, T, fam, [0.5, 2.0])


def test_triple_of_wrong_dimension_raises_everywhere(lap_model):
    # the Laplacian fiber has a one-dimensional deficiency space
    from bec.edge import edge_eigenvalues, vn_unitary_family
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
    assert np.array_equal(_rank_deficient(J), smin <= 1e-10)
    assert 0 < np.sum(_rank_deficient(J)) < len(J)
    # three columns, the third a combination of the first two
    J3 = np.concatenate([J[:, :, :1], b[:, :, None],
                         (J[:, :, :1] + 2.0 * b[:, :, None])], axis=2)
    J3 /= np.linalg.norm(J3, axis=1, keepdims=True)
    assert np.all(_rank_deficient(J3))
    assert not np.any(_rank_deficient(J[:, :, :1]))
