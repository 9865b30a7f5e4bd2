"""Self-adjoint extension machinery for half-plane and interface fibers.

For a fiber operator  H(k) = sum_j D_j d^j/dy^j  and a spectral parameter z
off the real axis, the exponential solutions  phi exp(-mu y)  of
(H(k) - z) Psi = 0 that decay on one side span the deficiency spaces.  A
boundary triple (two trace maps G1, G2 on solution jets) turns them into the
Krein matrix Q(z), the condition matrix W(z) = A - B Q(z) of a boundary
condition A Gamma_1 = B Gamma_2, and the von Neumann unitary
U = W(i)^{-1} W(-i) whose large-k behaviour decides affiliation.
"""

import numpy as np

from .errors import (
    BoundaryOfRegularityError,
    ContractViolation,
    DegenerateExponentError,
    DomainError,
    InadmissibleConditionError,
    NumericalFailure,
    TripleDegeneracyError,
    UnsupportedConversionError,
)
from .numerics import as_square, min_singular, norm_inf, poly_roots

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
Y_MAT = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)  # i * sigma_y


# ---------------------------------------------------------------------------
# deficiency bases

_REAL_MARGIN = 1e-8
_CLUSTER_TOL = 1e-9


def _chebyshev_nodes(degree, scale):
    t = np.arange(degree + 1)
    return scale * np.cos(np.pi * (2 * t + 1) / (2.0 * (degree + 1)))


def char_poly(F, z):
    """Coefficients (by degree in mu) of det( sum_j D_j (-mu)^j - z ),
    recovered by interpolation of determinant values at Chebyshev nodes."""
    d = F.order * F.N
    scale = 1.0 + abs(F.k) + abs(z) ** (1.0 / max(F.order, 1))
    nodes = _chebyshev_nodes(d, scale)
    vals = np.array([np.linalg.det(F.char_matrix(x, z)) for x in nodes])
    V = np.vander(nodes.astype(complex), d + 1, increasing=True)
    return np.linalg.solve(V, vals)


class DeficiencyBasis:
    """Exponential solutions phi exp(-mu y) with Re mu of a fixed sign.

    entries: list of (mu, phi), phi normalized; side 'right' means Re mu > 0
    (decay on y > 0), 'left' means Re mu < 0 (decay on y < 0).
    """

    def __init__(self, k, z, side, entries, order, N):
        if side not in ("right", "left"):
            raise ContractViolation("side must be 'right' or 'left'")
        self.k = float(k)
        self.z = complex(z)
        self.side = side
        self.entries = list(entries)
        self.order = int(order)
        self.N = int(N)

    def jets(self):
        """Jet matrix: column per entry, rows the stacked derivatives
        ( phi, -mu phi, mu^2 phi, ..., (-mu)^{order-1} phi )."""
        cols = []
        for mu, phi in self.entries:
            cols.append(np.concatenate([(-mu) ** j * phi
                                        for j in range(self.order)]))
        if not cols:
            return np.zeros((self.order * self.N, 0), dtype=complex)
        return np.array(cols, dtype=complex).T


def _exp_basis(F, z, side, allow_real=False):
    """Shared worker for deficiency_basis; allow_real lets edge detection use
    real z inside a spectral gap (the exponents stay off the axis there)."""
    if not allow_real and abs(z.imag if isinstance(z, complex) else 0.0) == 0.0:
        raise ContractViolation("need Im z != 0 for a deficiency basis")
    if F.order < 1:
        raise ContractViolation("fiber operator must have order >= 1")
    z = complex(z)
    coeffs = char_poly(F, z)
    # root-find in the rescaled variable mu/scale for a balanced companion
    scale = 1.0 + abs(F.k) + abs(z) ** (1.0 / max(F.order, 1))
    scaled = coeffs * scale ** np.arange(len(coeffs))
    roots = [scale * r for r in poly_roots(scaled)]
    top = max(abs(r) for r in roots)
    for i, r1 in enumerate(roots):
        if abs(r1.real) < _REAL_MARGIN * (1.0 + abs(r1)):
            raise BoundaryOfRegularityError(
                "decay exponent %s sits on the imaginary axis (k=%g, z=%s)"
                % (r1, F.k, z))
        for r2 in roots[i + 1:]:
            if abs(r1 - r2) < _CLUSTER_TOL * (1.0 + top):
                raise DegenerateExponentError(
                    "decay exponents %s and %s coincide (k=%g, z=%s)"
                    % (r1, r2, F.k, z))
    want = (lambda m: m.real > 0) if side == "right" else (lambda m: m.real < 0)
    entries = []
    for mu in sorted((r for r in roots if want(r)),
                     key=lambda m: (m.real, m.imag)):
        M = F.char_matrix(mu, z)
        _, s, Vh = np.linalg.svd(M)
        phi = Vh[-1].conj()
        resid = np.linalg.norm(M @ phi)
        # yardstick: magnitude of the terms that cancel at the root (M itself
        # is ~0 there, so norm(M) is useless as a scale)
        tscale = abs(z) + sum(norm_inf(D) * max(1.0, abs(mu)) ** j
                              for j, D in enumerate(F.Ds))
        if resid >= 1e-9 * np.linalg.norm(phi) * max(1.0, tscale):
            raise NumericalFailure(
                "amplitude residual %.2e too large at mu=%s" % (resid, mu),
                data=M)
        entries.append((complex(mu), phi))
    basis = DeficiencyBasis(F.k, z, side, entries, F.order, F.N)
    J = basis.jets()
    if J.shape[1]:
        Jn = J / np.linalg.norm(J, axis=0, keepdims=True)
        if min_singular_rect(Jn) <= 1e-10:
            raise DegenerateExponentError(
                "jet matrix of the basis is rank-deficient")
    return basis


def min_singular_rect(M):
    s = np.linalg.svd(np.asarray(M, dtype=complex), compute_uv=False)
    return float(s[-1]) if s.size else 0.0


def deficiency_basis(F, z, side):
    """One-sided decaying exponential solutions of (H(k)-z)Psi = 0."""
    return _exp_basis(F, z, side, allow_real=False)


# ---------------------------------------------------------------------------
# boundary triples


def _poly_mat(coeffs, k):
    out = np.zeros_like(np.asarray(coeffs[0], dtype=complex))
    for j, C in enumerate(coeffs):
        out = out + np.asarray(C, dtype=complex) * (k ** j)
    return out


class BoundaryTriple:
    """Trace maps G1, G2 from solution jets to the auxiliary space C^dimV.

    side 'halfline': jets are the order*N derivatives at y=0 of a function on
    y>0.  side 'interface': jets are stacked (jet at 0+, jet at 0-) and have
    twice the length.  G1 and G2 may be polynomial in k (list of coefficient
    matrices); most triples are constant.
    """

    def __init__(self, dimV, side, G1, G2, order, N):
        if side not in ("halfline", "interface"):
            raise ContractViolation("side must be 'halfline' or 'interface'")
        self.dimV = int(dimV)
        self.side = side
        self.order = int(order)
        self.N = int(N)
        width = self.order * self.N * (2 if side == "interface" else 1)
        self.G1_coeffs = [as_square_or_rect(G, self.dimV, width) for G in
                          (G1 if isinstance(G1, (list, tuple)) else [G1])]
        self.G2_coeffs = [as_square_or_rect(G, self.dimV, width) for G in
                          (G2 if isinstance(G2, (list, tuple)) else [G2])]

    def G1_at(self, k):
        return _poly_mat(self.G1_coeffs, float(k))

    def G2_at(self, k):
        return _poly_mat(self.G2_coeffs, float(k))

    def full_jets(self, bases):
        """Jet matrix matching this triple's layout.

        halfline: one right basis.  interface: (right basis, left basis);
        right solutions live on y>0 so their 0- jet block vanishes, and
        vice versa.
        """
        if self.side == "halfline":
            return bases.jets() if isinstance(bases, DeficiencyBasis) \
                else bases[0].jets()
        right, left = bases
        Jr, Jl = right.jets(), left.jets()
        w = self.order * self.N
        J = np.zeros((2 * w, Jr.shape[1] + Jl.shape[1]), dtype=complex)
        J[:w, : Jr.shape[1]] = Jr
        J[w:, Jr.shape[1]:] = Jl
        return J


def as_square_or_rect(M, rows, cols):
    A = np.asarray(M, dtype=complex)
    if A.shape != (rows, cols):
        raise ContractViolation("trace map shape %s, expected (%d, %d)"
                                % (A.shape, rows, cols))
    if not np.all(np.isfinite(A.view(float))):
        raise ContractViolation("trace map has non-finite entries")
    return A


def green_boundary_matrix(F):
    """Skew form J on jets with  <psi,Hphi> - <Hpsi,phi> = -jet(psi)^dag J jet(phi)
    for functions on y>0:  J[t,r] = (-1)^t D_{t+r+1}  (blocks of size N)."""
    n, N = F.order, F.N
    J = np.zeros((n * N, n * N), dtype=complex)
    for t in range(n):
        for r in range(n):
            j = t + r + 1
            if j <= n:
                J[t * N:(t + 1) * N, r * N:(r + 1) * N] = (-1.0) ** t * F.Ds[j]
    return J


def _split_fiber(F):
    """(upper fiber, lower fiber); a plain fiber serves as both sides."""
    return getattr(F, "plus", F), getattr(F, "minus", F)


def formal_symmetry_defect(F):
    """How far the Green boundary matrix is from skew-Hermitian; zero exactly
    when every coefficient satisfies D_j^dag = (-1)^j D_j."""
    Fp, Fm = _split_fiber(F)
    defect = norm_inf(green_boundary_matrix(Fp)
                      + green_boundary_matrix(Fp).conj().T)
    if Fm is not Fp:
        defect = max(defect, norm_inf(green_boundary_matrix(Fm)
                                      + green_boundary_matrix(Fm).conj().T))
    return defect


def triple_defect(T, F):
    """Residual of the algebraic Green identity
    G1^dag G2 - G2^dag G1 = -J  (halfline)  /  diag(-J_upper, J_lower)."""
    k = F.k
    G1, G2 = T.G1_at(k), T.G2_at(k)
    lhs = G1.conj().T @ G2 - G2.conj().T @ G1
    Fp, Fm = _split_fiber(F)
    if T.side == "halfline":
        expected = -green_boundary_matrix(Fp)
    else:
        w = T.order * T.N
        expected = np.zeros((2 * w, 2 * w), dtype=complex)
        expected[:w, :w] = -green_boundary_matrix(Fp)
        expected[w:, w:] = green_boundary_matrix(Fm)
    return norm_inf(lhs - expected)


# ---------------------------------------------------------------------------
# boundary conditions


class BoundaryCondition:
    """A boundary condition A(k) Gamma_1 = B(k) Gamma_2.

    Either direct (A, B) data, polynomial in k, or a local (K, L, M) form
    converted through klm_to_ab for the models that ship a converter.
    """

    def __init__(self, label, ab_poly=None, klm=None):
        self.label = str(label)
        if (ab_poly is None) == (klm is None):
            raise ContractViolation("give exactly one of ab_poly / klm")
        self._ab_poly = None
        self._klm = None
        if ab_poly is not None:
            A, B = ab_poly
            A = A if isinstance(A, (list, tuple)) else [A]
            B = B if isinstance(B, (list, tuple)) else [B]
            self._ab_poly = ([np.atleast_2d(np.asarray(c, dtype=complex)) for c in A],
                             [np.atleast_2d(np.asarray(c, dtype=complex)) for c in B])
        else:
            self._klm = klm  # (tag, K, L, M, eps)

    def ab_at(self, k):
        if self._ab_poly is not None:
            A, B = self._ab_poly
            return _poly_mat(A, float(k)), _poly_mat(B, float(k))
        tag, K, L, M, eps = self._klm
        return klm_to_ab(tag, K, L, M, float(k), eps=eps)

    def ab_batch(self, ks):
        """Stacked (A(k), B(k)) pairs, shape (len(ks), dimV, dimV) each."""
        ks = np.asarray(ks, dtype=float)
        if self._ab_poly is not None:
            A, B = self._ab_poly
            powers = ks[:, None, None]
            Ak = sum(np.asarray(c)[None] * powers ** j for j, c in enumerate(A))
            Bk = sum(np.asarray(c)[None] * powers ** j for j, c in enumerate(B))
            return np.asarray(Ak, dtype=complex), np.asarray(Bk, dtype=complex)
        pairs = [self.ab_at(k) for k in ks]
        return (np.array([p[0] for p in pairs]),
                np.array([p[1] for p in pairs]))

    def __repr__(self):
        return "BoundaryCondition(%r)" % self.label


def from_ab(A, B, label=""):
    return BoundaryCondition(label or "direct", ab_poly=(A, B))


def from_klm(tag, K, L, M, label="", eps=None):
    return BoundaryCondition(label or ("%s-klm" % tag),
                             klm=(tag, K, L, M, eps))


def admissibility_residuals(bc, k):
    """(min singular of iA+B, Hermiticity defect of A B^dag) at momentum k."""
    A, B = bc.ab_at(k)
    iab = 1j * A + B
    ab = A @ B.conj().T
    return min_singular(iab), norm_inf(ab - ab.conj().T)


def check_admissible(bc, k):
    ms, herm = admissibility_residuals(bc, k)
    if ms <= 1e-10:
        raise InadmissibleConditionError(
            "%s: iA+B numerically singular at k=%g (min sing %.2e)"
            % (bc.label, k, ms))
    if herm >= 1e-10 * (1.0 + norm_inf(bc.ab_at(k)[0])):
        raise InadmissibleConditionError(
            "%s: A B^dag not Hermitian at k=%g (defect %.2e)"
            % (bc.label, k, herm))


def _promote_2x2(X):
    """Scalars become multiples of the 2x2 identity; 2x2 matrices pass."""
    A = np.asarray(X, dtype=complex)
    if A.shape == ():
        return complex(A) * np.eye(2, dtype=complex)
    if A.shape == (1, 1):
        return complex(A[0, 0]) * np.eye(2, dtype=complex)
    if A.shape == (2, 2):
        return A
    raise ContractViolation("expected a scalar or 2x2 matrix, got %s"
                            % (A.shape,))


def klm_to_ab(tag, K, L, M, k, eps=None):
    """Convert a local boundary form K psi + L psi_x + M psi_y = 0 into
    condition matrices (A, B) for the model's shipped triple.

    half-plane scalar second-order model ('laplacian'):
        A = K - i k L,  B = -M.
    regularized two-band model ('regdirac', needs eps):
        B = -eps^{-1} M sigma_z,  A = K - i k L - (1/2) B Y.
    The first-order interface model has no local (K, L, M) form.
    """
    if tag == "laplacian":
        A = np.atleast_2d(np.asarray(K, dtype=complex)
                          - 1j * float(k) * np.asarray(L, dtype=complex))
        B = -np.atleast_2d(np.asarray(M, dtype=complex))
        return A, B
    if tag == "regdirac":
        if eps is None:
            raise ContractViolation("regdirac conversion needs eps")
        K = _promote_2x2(K)
        L = _promote_2x2(L)
        M = _promote_2x2(M)
        B = -(1.0 / float(eps)) * (M @ SIGMA_Z)
        A = K - 1j * float(k) * L - 0.5 * (B @ Y_MAT)
        return A, B
    raise UnsupportedConversionError(
        "no (K, L, M) converter for model tag %r" % tag)


# ---------------------------------------------------------------------------
# Krein matrix, condition matrix, von Neumann unitary


def krein_Q(T, bases):
    """Q(z) = (G2 J)(G1 J)^{-1} on the jet matrix J of the deficiency basis
    (right basis for halfline triples; (right, left) pair for interfaces).
    Independent of the choice of basis."""
    J = T.full_jets(bases)
    if J.shape[1] != T.dimV:
        raise TripleDegeneracyError(
            "deficiency space dimension %d != dimV %d" % (J.shape[1], T.dimV))
    J = J / np.linalg.norm(J, axis=0, keepdims=True)
    k = bases.k if isinstance(bases, DeficiencyBasis) else bases[0].k
    G1J = T.G1_at(k) @ J
    G2J = T.G2_at(k) @ J
    if min_singular(G1J) <= 1e-10:
        raise TripleDegeneracyError(
            "G1 restricted to the deficiency space is singular")
    return G2J @ np.linalg.inv(G1J)


def weyl_W(bc, Q, k):
    """Condition matrix W(z) = A(k) - B(k) Q(z)."""
    check_admissible(bc, k)
    A, B = bc.ab_at(k)
    Q = as_square(Q)
    return A - B @ Q


def _bases_for(T, F, z):
    Fp, Fm = _split_fiber(F)
    if T.side == "halfline":
        return _exp_basis(Fp, z, "right", allow_real=True)
    return (_exp_basis(Fp, z, "right", allow_real=True),
            _exp_basis(Fm, z, "left", allow_real=True))


def _krein_pair(T, F):
    """(Q(i), Q(-i)) of the fiber F; shared by every boundary condition."""
    return krein_Q(T, _bases_for(T, F, 1j)), krein_Q(T, _bases_for(T, F, -1j))


def vn_unitary(bc, T, F, k=None):
    """Von Neumann unitary U = W(i)^{-1} W(-i) of the extension at momentum
    k; similar to a unitary, so its eigenvalues lie on the unit circle."""
    return _unitary_from_Q(bc, _krein_pair(T, F),
                           F.k if k is None else float(k))


def _unitary_from_Q(bc, Q, k):
    """vn_unitary from the Krein pair Q = (Q(i), Q(-i)) at momentum k."""
    Wp = weyl_W(bc, Q[0], k)
    Wm = weyl_W(bc, Q[1], k)
    if min_singular(Wp) <= 1e-12 * max(1.0, norm_inf(Wp)):
        raise InadmissibleConditionError("W(i) is singular at k=%g" % k)
    U = np.linalg.solve(Wp, Wm)
    lam = np.linalg.eigvals(U)
    if np.max(np.abs(np.abs(lam) - 1.0)) >= 1e-8:
        raise NumericalFailure(
            "von Neumann unitary eigenvalues off the unit circle at k=%g" % k,
            data=U)
    return U


# ---------------------------------------------------------------------------
# affiliation verdict


class AffiliationVerdict:
    def __init__(self, verdict, direction, evidence):
        self.verdict = verdict          # 'affiliated' | 'not-affiliated' | 'inconclusive'
        self.direction = direction      # '+', '-', '+-' or None
        self.evidence = evidence        # {'+': [r(1e2), r(1e3), r(1e4)], '-': ...}

    def __repr__(self):
        d = "(%s)" % self.direction if self.direction else ""
        return "%s%s %s" % (self.verdict, d, self.evidence)


def affiliation_check(bc, T, fiber_family, bc_ref=None):
    """Decide whether the extension's unitary settles to the reference at
    large momentum.

    Computes r(kappa) = ||U(+-kappa) - U_ref(+-kappa)|| at kappa = 1e2, 1e3,
    1e4 (U_ref = 1 when no reference condition is given).  Affiliated needs a
    decreasing trend with r(1e4) < 0.05 on both sides; a limit above 0.5 on a
    side reports not-affiliated in that direction; anything else is
    inconclusive.  The deficiency bases and Krein matrices of each momentum
    serve both conditions.
    """
    kappas = (1e2, 1e3, 1e4)
    evidence = {}
    for sign, key in ((1.0, "+"), (-1.0, "-")):
        rs = []
        for kap in kappas:
            F = fiber_family(sign * kap)
            Q = _krein_pair(T, F)
            U = _unitary_from_Q(bc, Q, F.k)
            if bc_ref is not None:
                Uref = _unitary_from_Q(bc_ref, Q, F.k)
                dev = np.linalg.norm(U @ np.linalg.inv(Uref) - np.eye(T.dimV), 2)
            else:
                dev = np.linalg.norm(U - np.eye(T.dimV), 2)
            rs.append(float(dev))
        evidence[key] = rs
    bad = []
    good = []
    for key in ("+", "-"):
        r2, r3, r4 = evidence[key]
        if r4 > 0.5 and r4 > 0.5 * r3:
            bad.append(key)
        elif r3 <= r2 * (1 + 1e-6) and r4 <= r3 * (1 + 1e-6) and r4 < 0.05:
            good.append(key)
    if bad:
        return AffiliationVerdict("not-affiliated", "".join(bad), evidence)
    if len(good) == 2:
        return AffiliationVerdict("affiliated", None, evidence)
    return AffiliationVerdict("inconclusive", None, evidence)


# ---------------------------------------------------------------------------
# Green identity


def _pair_inner(e1, side1, e2, side2):
    """Closed-form L2 inner product of two one-sided exponential solutions."""
    if side1 != side2:
        return 0.0 + 0.0j
    (mu1, phi1), (mu2, phi2) = e1, e2
    denom = np.conj(mu1) + mu2
    val = np.vdot(phi1, phi2) / denom
    return val if side1 == "right" else -val


def green_identity_residual(T, F, k=None):
    """Largest relative defect of
    <psi, H* phi> - <H* psi, phi> = <G1 psi, G2 phi> - <G2 psi, G1 phi>
    over deficiency solutions psi at z=i and phi at z = +-i."""
    del k  # the fiber already carries its momentum
    Fp, Fm = _split_fiber(F)
    if T.side == "halfline":
        sided_fibers = (("right", Fp),)
    else:
        sided_fibers = (("right", Fp), ("left", Fm))
    solutions = {1j: [], -1j: []}
    for z in (1j, -1j):
        for side, Fs in sided_fibers:
            basis = _exp_basis(Fs, z, side, allow_real=False)
            for mu, phi in basis.entries:
                solutions[z].append((side, mu, phi))
    w = T.order * T.N
    G1, G2 = T.G1_at(F.k), T.G2_at(F.k)

    def jet_of(side, mu, phi):
        j = np.concatenate([(-mu) ** t * phi for t in range(T.order)])
        if T.side == "halfline":
            return j
        full = np.zeros(2 * w, dtype=complex)
        if side == "right":
            full[:w] = j
        else:
            full[w:] = j
        return full

    worst = 0.0
    for (s1, mu1, phi1) in solutions[1j]:
        j1 = jet_of(s1, mu1, phi1)
        for z2 in (1j, -1j):
            for (s2, mu2, phi2) in solutions[z2]:
                j2 = jet_of(s2, mu2, phi2)
                inner = _pair_inner((mu1, phi1), s1, (mu2, phi2), s2)
                lhs = (z2 - np.conj(1j)) * inner
                rhs = np.vdot(G1 @ j1, G2 @ j2) - np.vdot(G2 @ j1, G1 @ j2)
                worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    return worst
