"""Self-adjoint extension machinery for half-plane and interface fibers.

For a fiber operator  H(k) = sum_j D_j d^j/dy^j  and a spectral parameter z
off the real axis, the exponential solutions  phi exp(-mu y)  of
(H(k) - z) Psi = 0 that decay on one side span the deficiency spaces.  A
boundary triple (two trace maps G1, G2 on solution jets) turns them into the
Krein matrix Q(z), the condition matrix W(z) = A - B Q(z) of a boundary
condition A Gamma_1 = B Gamma_2, and the von Neumann unitary
U = W(i)^{-1} W(-i) whose large-k behaviour decides affiliation.

Fibers arrive as one type, `symbol.FiberStack`: the momenta ks and one
(n, order+1, N, N) coefficient stack per side, one side on a half plane and
(y > 0, y < 0) at an interface.  Trace maps and boundary conditions are
polynomials in k, stored as coefficient stacks and evaluated over the same
momenta: `BoundaryTriple.traces` gives (G1, G2), `BoundaryCondition.ab_batch`
gives (A, B).  Every A_j and B_j of a condition is one p x p matrix, and
`_ab_on`, the one place where a condition meets a triple, checks that p is
the triple's dimV.  A local (K, L, M) form is converted to such a condition
once, by `from_klm`.

The steps bases -> Krein Q -> U are one kernel, batched over fibers and
spectral points: `_basis_batch` on one side's coefficients, `_side_bases`
and `_full_jets_batch` on a FiberStack in a triple's layout, `_krein_family`
and `_unitaries`.  Every basis row carries a reason code; the edge detector
masks the failing rows, and everything else raises the code's typed error.
The per-point API (`deficiency_basis`, `krein_Q`, `vn_unitary`,
`green_identity_residual`) is the kernel on a one-row FiberStack, and
`affiliation_check` runs it on its six momenta.
"""
import numpy as np

from .errors import (
    BoundaryOfRegularityError,
    ContractViolation,
    DegenerateExponentError,
    InadmissibleConditionError,
    NumericalFailure,
    TripleDegeneracyError,
    UnsupportedConversionError,
)
from .numerics import norm_inf

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
Y_MAT = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)  # i * sigma_y


def _poly_stack(coeffs, ks):
    """sum_j C_j k^j for the matrix coefficients C_j, stacked over ks."""
    ks = np.asarray(ks, dtype=float)
    out = np.zeros((len(ks),) + coeffs[0].shape, dtype=complex)
    for j, Cj in enumerate(coeffs):
        out += Cj[None] * (ks ** j)[:, None, None]
    return out


# ---------------------------------------------------------------------------
# batched deficiency bases

_LEAD_TOL = 1e-10      # leading coefficient below this fraction: no roots
_REAL_MARGIN = 1e-8    # |Re mu| below this relative size: on the axis
_CLUSTER_TOL = 1e-9    # exponents closer than this relative size coincide
_RESID_TOL = 1e-9      # amplitude residual bar, relative to the root terms
_JET_RANK_TOL = 1e-10  # smallest singular value of the normalized jets

# reason codes of a basis row (0: a good row) and the errors they map to
_ON_AXIS, _DEGENERATE, _WRONG_COUNT, _FAILED = 1, 2, 3, 4
_CODE_ERRORS = {
    _ON_AXIS: (BoundaryOfRegularityError,
               "a decay exponent sits on the imaginary axis"),
    _DEGENERATE: (DegenerateExponentError,
                  "decay exponents coincide or their jets lose rank"),
    _WRONG_COUNT: (TripleDegeneracyError,
                   "wrong number of decaying exponents"),
    _FAILED: (NumericalFailure, "vanishing leading coefficient or "
              "amplitude residual too large"),
}


def _char_matrices(Ds, zs, mus):
    """sum_j D_j (-mu)^j - z for the fibers Ds (n, order+1, N, N), each at
    its own z (n,) and exponents mus (n, m): shape (n, m, N, N).  Its kernel
    gives the exponential solutions e^{-mu y} phi."""
    N = Ds.shape[2]
    C = np.zeros((len(Ds), mus.shape[1], N, N), dtype=complex)
    C -= zs[:, None, None, None] * np.eye(N, dtype=complex)[None, None]
    for j in range(Ds.shape[1]):
        C += Ds[:, j][:, None] * ((-mus) ** j)[:, :, None, None]
    return C


def _char_poly(Ds, ks, zs):
    """Characteristic polynomials det(sum_j D_j (-mu)^j - z) of a fiber
    stack, interpolated at Chebyshev nodes, in the rescaled variable
    mu/scale whose roots are O(1): keeps the companion matrix well balanced
    at large k.  Returns (coefficients (n, order*N + 1) by degree, scale)."""
    order, N = Ds.shape[1] - 1, Ds.shape[2]
    d = order * N
    scale = 1.0 + np.abs(ks) + np.abs(zs) ** (1.0 / order)
    t = np.arange(d + 1)
    base = np.cos(np.pi * (2 * t + 1) / (2.0 * (d + 1)))
    dets = np.linalg.det(_char_matrices(Ds, zs,
                                        scale[:, None] * base[None, :]))
    V = np.vander(base.astype(complex), d + 1, increasing=True)
    return np.linalg.solve(V, dets.T).T, scale


def _companion_roots(coeffs):
    """Roots (n, d) of the polynomials with coefficient rows (n, d+1), by
    degree, as companion-matrix eigenvalues, and whether each leading
    coefficient is above _LEAD_TOL of the largest (the roots of a row
    where it is not mean nothing)."""
    n, d = coeffs.shape[0], coeffs.shape[1] - 1
    ok = np.abs(coeffs[:, -1]) > _LEAD_TOL * (np.abs(coeffs).max(axis=1)
                                              + 1e-300)
    lead = np.where(ok, coeffs[:, -1], 1.0)
    comp = np.zeros((n, d, d), dtype=complex)
    if d > 1:
        comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    comp[:, :, -1] = -coeffs[:, :-1] / lead[:, None]
    return np.linalg.eigvals(comp), ok


def _jets_batch(mus, phis, order):
    """Normalized jet matrices (n, order*N, p): column per solution, rows
    the stacked derivatives (phi, -mu phi, mu^2 phi, ..., (-mu)^{order-1}
    phi) at y = 0."""
    n, p = mus.shape
    N = phis.shape[2]
    J = np.empty((n, order * N, p), dtype=complex)
    phT = phis.transpose(0, 2, 1)
    for j in range(order):
        J[:, j * N:(j + 1) * N, :] = ((-mus) ** j)[:, None, :] * phT
    nrm = np.linalg.norm(J, axis=1, keepdims=True)
    nrm = np.where(nrm == 0.0, 1.0, nrm)
    return J / nrm


def _rank_deficient(J):
    """Rows whose normalized jet columns have a smallest singular value at
    most _JET_RANK_TOL.  For two unit columns a, b that value is
    |a - b e^{-i arg <a, b>}| / sqrt(2), which avoids both an SVD and the
    cancellation in sqrt(1 - |<a, b>|)."""
    p = J.shape[2]
    if p < 2:
        return np.zeros(len(J), dtype=bool)
    if p > 2:
        return np.linalg.svd(J, compute_uv=False)[:, -1] <= _JET_RANK_TOL
    a, b = J[:, :, 0], J[:, :, 1]
    g = np.einsum("ni,ni->n", a.conj(), b)
    phase = np.exp(-1j * np.angle(g))
    smin = np.linalg.norm(a - b * phase[:, None], axis=1) / np.sqrt(2.0)
    return smin <= _JET_RANK_TOL


def _basis_batch(Ds, ks, zs, side, expect):
    """Decaying exponential solutions for a stack of fibers.

    Ds: (n, order+1, N, N); ks, zs: (n,).  Returns (mus (n, expect),
    phis (n, expect, N), normalized jets (n, order*N, expect), code (n,)).
    A row's code is 0 when its basis is good; otherwise, by precedence,
    _FAILED for a vanishing leading coefficient, _ON_AXIS for a root on the
    imaginary axis, _DEGENERATE for coinciding roots, _WRONG_COUNT when the
    roots do not split into `expect` on the requested side, _FAILED for a
    poor amplitude residual, and _DEGENERATE for rank-deficient jets.
    """
    order = Ds.shape[1] - 1
    if order < 1:
        raise ContractViolation("fiber operator must have order >= 1")
    ks = np.asarray(ks, dtype=float)
    zs = np.asarray(zs, dtype=complex)
    coeffs, scale = _char_poly(Ds, ks, zs)
    roots, lead_ok = _companion_roots(coeffs)
    roots = roots * scale[:, None]                                # (n, d)
    d = roots.shape[1]
    top = 1.0 + np.max(np.abs(roots), axis=1)
    on_axis = np.any(np.abs(roots.real) < _REAL_MARGIN * (1.0 + np.abs(roots)),
                     axis=1)
    clustered = np.zeros(len(ks), dtype=bool)
    if d > 1:
        pair = np.abs(roots[:, :, None] - roots[:, None, :])
        pair += 1e30 * np.eye(d)[None]
        clustered = ~(pair.min(axis=(1, 2)) >= _CLUSTER_TOL * top)
    good = roots.real > 0 if side == "right" else roots.real < 0
    key_real = np.where(good, roots.real, 1e30)
    key_imag = np.where(good, roots.imag, 0.0)
    idx = np.lexsort((key_imag, key_real), axis=-1)
    mus = np.take_along_axis(roots, idx, axis=1)[:, :expect]      # (n, expect)
    Cm = _char_matrices(Ds, zs, mus)
    Vh = np.linalg.svd(Cm)[2]
    phis = Vh[..., -1, :].conj()                                  # (n, expect, N)
    resid = np.abs(np.einsum("npij,npj->npi", Cm, phis)).max(axis=(1, 2),
                                                             initial=0.0)
    # yardstick: magnitude of the terms that cancel at the roots (Cm itself
    # is ~0 there, so its norm is useless as a scale)
    mumax = np.maximum(1.0, np.abs(mus)).max(axis=1, initial=1.0)  # (n,)
    tscale = np.abs(zs)
    for j in range(order + 1):
        tscale = tscale + np.abs(Ds[:, j]).max(axis=(1, 2)) * mumax ** j
    J = _jets_batch(mus, phis, order)
    # later tests take precedence
    code = np.where(_rank_deficient(J), _DEGENERATE, 0)
    code = np.where(resid <= _RESID_TOL * (1.0 + tscale), code, _FAILED)
    code = np.where(good.sum(axis=1) != expect, _WRONG_COUNT, code)
    code = np.where(clustered, _DEGENERATE, code)
    code = np.where(on_axis, _ON_AXIS, code)
    return mus, phis, J, np.where(lead_ok, code, _FAILED)


def _check_codes(code, ks):
    """Raise the typed error of the first failing row of a basis batch,
    naming the momenta of up to five failing rows."""
    bad = np.nonzero(code)[0]
    if len(bad):
        error, what = _CODE_ERRORS[int(code[bad[0]])]
        raise error("deficiency basis failed (%s) at k=%s"
                    % (what, np.asarray(ks, dtype=float)[bad][:5]))


def _side_bases(F, zs):
    """Decaying solutions of the fibers F (a FiberStack), each at its own
    spectral point zs: on y > 0 for the first side and on y < 0 for an
    interface's second, one `_basis_batch` result per side."""
    return [_basis_batch(Ds, F.ks, zs, side,
                         ((Ds.shape[1] - 1) * Ds.shape[2]) // 2)
            for Ds, side in zip(F.sides, ("right", "left"))]


def _triple_layout(T, jets):
    """The sides' jet matrices in the triple's layout: the right side's for
    a halfline triple; for an interface, solutions on y > 0 have a
    vanishing jet at 0-, and vice versa.  The deficiency space must have
    the triple's dimension dimV."""
    dim = sum(J.shape[2] for J in jets)
    if dim != T.dimV:
        raise TripleDegeneracyError(
            "deficiency space has dimension %d, dimV=%d" % (dim, T.dimV))
    if len(jets) == 1:
        return jets[0]
    jp, jm = jets
    w, ep = T.order * T.N, jp.shape[2]
    J = np.zeros((len(jp), 2 * w, dim), dtype=complex)
    J[:, :w, :ep] = jp
    J[:, w:, ep:] = jm
    return J


def _full_jets_batch(T, F, zs):
    """Jet matrices in the triple's layout for the fibers F, each at its own
    spectral point zs.  Returns (jets (n, W, dimV), code (n,)), the code of
    the first side whose basis fails."""
    sides = _side_bases(F, zs)
    code = sides[0][3]
    if len(sides) == 2:
        code = np.where(code != 0, code, sides[1][3])
    return _triple_layout(T, [J for _, _, J, _ in sides]), code


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


def deficiency_basis(F, z, side):
    """One-sided decaying exponential solutions of (H(k)-z)Psi = 0 for the
    fiber F at one momentum, with one side (a one-row FiberStack)."""
    if complex(z).imag == 0.0:
        raise ContractViolation("need Im z != 0 for a deficiency basis")
    if len(F.sides) != 1:
        raise ContractViolation("a deficiency basis needs a one-sided fiber")
    ks = np.array([F.k])
    Ds = F.sides[0]
    order, N = Ds.shape[1] - 1, Ds.shape[2]
    mus, phis, _, code = _basis_batch(Ds, ks, np.array([complex(z)]), side,
                                      (order * N) // 2)
    _check_codes(code, ks)
    return DeficiencyBasis(F.k, z, side,
                           [(complex(mu), phi) for mu, phi in
                            zip(mus[0], phis[0])], order, N)


# ---------------------------------------------------------------------------
# boundary triples


class BoundaryTriple:
    """Trace maps G1, G2 from solution jets to the auxiliary space C^dimV.

    side 'halfline': jets are the order*N derivatives at y=0 of a function on
    y>0.  side 'interface': jets are stacked (jet at 0+, jet at 0-) and have
    twice the length.  G1 and G2 may be polynomial in k (list of coefficient
    matrices); most triples are constant.  `traces` evaluates them.
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

    def traces(self, ks):
        """Trace maps (G1(k), G2(k)) stacked over the momenta ks, shape
        (len(ks), dimV, jet width) each."""
        return (_poly_stack(self.G1_coeffs, ks),
                _poly_stack(self.G2_coeffs, ks))


def as_square_or_rect(M, rows, cols):
    A = np.asarray(M, dtype=complex)
    if A.shape != (rows, cols):
        raise ContractViolation("trace map shape %s, expected (%d, %d)"
                                % (A.shape, rows, cols))
    if not np.all(np.isfinite(A.view(float))):
        raise ContractViolation("trace map has non-finite entries")
    return A


def green_boundary_matrix(Ds):
    """Skew form J on jets with  <psi,Hphi> - <Hpsi,phi> = -jet(psi)^dag J jet(phi)
    for functions on y>0:  J[t,r] = (-1)^t D_{t+r+1}  (blocks of size N),
    from one side's fiber coefficients Ds (order+1, N, N)."""
    n, N = Ds.shape[0] - 1, Ds.shape[1]
    J = np.zeros((n * N, n * N), dtype=complex)
    for t in range(n):
        for r in range(n):
            j = t + r + 1
            if j <= n:
                J[t * N:(t + 1) * N, r * N:(r + 1) * N] = (-1.0) ** t * Ds[j]
    return J


def formal_symmetry_defect(F):
    """How far the Green boundary matrices of the fibers F are from
    skew-Hermitian, over every side and momentum; zero exactly when every
    coefficient satisfies D_j^dag = (-1)^j D_j."""
    return max(norm_inf(J + J.conj().T) for Ds in F.sides
               for J in map(green_boundary_matrix, Ds))


def triple_defect(T, F):
    """Residual of the algebraic Green identity at the fiber's momentum:
    G1^dag G2 - G2^dag G1 = -J  (halfline)  /  diag(-J_upper, J_lower)."""
    G1, G2 = (G[0] for G in T.traces([F.k]))
    lhs = G1.conj().T @ G2 - G2.conj().T @ G1
    expected = np.zeros_like(lhs)
    w = T.order * T.N
    for i, (Ds, sign) in enumerate(zip(F.sides, (-1.0, 1.0))):
        expected[i * w:(i + 1) * w, i * w:(i + 1) * w] = \
            sign * green_boundary_matrix(Ds[0])
    return norm_inf(lhs - expected)


# ---------------------------------------------------------------------------
# boundary conditions


class BoundaryCondition:
    """A boundary condition A(k) Gamma_1 = B(k) Gamma_2.

    A and B are polynomial in k: a coefficient matrix, or a list of them by
    degree.  `from_ab` builds a condition from such data directly,
    `from_klm` from a local (K, L, M) form.
    """

    def __init__(self, label, A, B):
        self.label = str(label)
        self._ab_poly = tuple(
            [np.atleast_2d(np.asarray(c, dtype=complex)) for c in
             (X if isinstance(X, (list, tuple)) else [X])] for X in (A, B))
        coeffs = [(name, j, C) for name, X in zip("AB", self._ab_poly)
                  for j, C in enumerate(X)]
        p = coeffs[0][2].shape[0]
        if any(C.shape != (p, p) for _, _, C in coeffs):
            raise ContractViolation(
                "%s: every A_j and B_j must be one p x p matrix, got %s"
                % (self.label, ", ".join("%s%d %dx%d" % ((name, j) + C.shape)
                                         for name, j, C in coeffs)))
        self.dim = p

    def ab_at(self, k):
        A, B = self.ab_batch([k])
        return A[0], B[0]

    def ab_batch(self, ks):
        """Stacked (A(k), B(k)) pairs, shape (len(ks), dim, dim) each."""
        A, B = self._ab_poly
        return _poly_stack(A, ks), _poly_stack(B, ks)

    def __repr__(self):
        return "BoundaryCondition(%r)" % self.label


def from_ab(A, B, label=""):
    return BoundaryCondition(label or "direct", A, B)


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


def from_klm(tag, K, L, M, label="", eps=None):
    """The condition of a local boundary form K psi + L psi_x + M psi_y = 0
    for the shipped triple of the model `tag`.  Both conversions are affine
    in k:

    half-plane scalar second-order model ('laplacian'):
        A = K - i k L,  B = -M.
    regularized two-band model ('regdirac', needs eps):
        B = -eps^{-1} M sigma_z,  A = K - i k L - (1/2) B Y.
    The first-order interface model has no local (K, L, M) form.
    """
    if tag == "laplacian":
        K, L, M = (np.atleast_2d(np.asarray(X, dtype=complex))
                   for X in (K, L, M))
        B = -M
        A0 = K
    elif tag == "regdirac":
        if eps is None:
            raise ContractViolation("regdirac conversion needs eps")
        K, L, M = (_promote_2x2(X) for X in (K, L, M))
        B = -(1.0 / float(eps)) * (M @ SIGMA_Z)
        A0 = K - 0.5 * (B @ Y_MAT)
    else:
        raise UnsupportedConversionError(
            "no (K, L, M) converter for model tag %r" % tag)
    return BoundaryCondition(label or ("%s-klm" % tag), [A0, -1j * L], [B])


def _admissibility(A, B):
    """For (A, B) stacked over momenta: the smallest singular values of
    iA + B, the Hermiticity defects of A B^dag, and which rows fail the
    admissibility test on either."""
    ms = np.linalg.svd(1j * A + B, compute_uv=False)[:, -1]
    AB = A @ B.conj().transpose(0, 2, 1)
    herm = np.abs(AB - AB.conj().transpose(0, 2, 1)).sum(axis=2).max(axis=1)
    size = np.abs(A).sum(axis=2).max(axis=1)
    return ms, herm, (ms <= 1e-10) | (herm >= 1e-10 * (1.0 + size))


def _check_admissible(bc, ks, A, B):
    """Raise InadmissibleConditionError at the first of the momenta ks where
    the condition's (A, B), stacked over ks, fails the admissibility test."""
    ms, herm, bad = _admissibility(A, B)
    if np.any(bad):
        i = int(np.argmax(bad))
        if ms[i] <= 1e-10:
            raise InadmissibleConditionError(
                "%s: iA+B numerically singular at k=%g (min sing %.2e)"
                % (bc.label, ks[i], ms[i]))
        raise InadmissibleConditionError(
            "%s: A B^dag not Hermitian at k=%g (defect %.2e)"
            % (bc.label, ks[i], herm[i]))


def _ab_on(bc, T, ks):
    """The condition's (A, B) stacked over ks, where it meets the triple T:
    both must act on the same auxiliary space C^dimV."""
    if bc.dim != T.dimV:
        raise ContractViolation(
            "%s: a %dx%d condition does not fit the %s triple (dimV=%d)"
            % (bc.label, bc.dim, bc.dim, T.side, T.dimV))
    return bc.ab_batch(ks)


# ---------------------------------------------------------------------------
# Krein matrix, condition matrix, von Neumann unitary


def _krein_solve(J, G1, G2):
    """Stacked Q = (G2 J)(G1 J)^{-1} on jet matrices J (n, W, dimV) in the
    triple's layout, with G1, G2 stacked over the same momenta."""
    M1 = G1 @ J
    M2 = G2 @ J
    sv = np.linalg.svd(M1, compute_uv=False)
    if np.any(sv[:, -1] <= 1e-10 * (1.0 + sv[:, 0])):
        raise TripleDegeneracyError(
            "G1 restricted to the deficiency space is singular")
    return np.linalg.solve(M1.transpose(0, 2, 1),
                           M2.transpose(0, 2, 1)).transpose(0, 2, 1)


def _krein_family(T, F):
    """Krein matrices (Q(i), Q(-i)), each (n, dimV, dimV), of the fibers F
    (a FiberStack, as `FiberFamily.stacks` returns it).

    Q depends on the triple and the fibers only, so every boundary condition
    over the same momenta shares it.
    """
    G1, G2 = T.traces(F.ks)
    Qs = []
    for z in (1j, -1j):
        J, code = _full_jets_batch(T, F, np.full(len(F.ks), z))
        _check_codes(code, F.ks)
        Qs.append(_krein_solve(J, G1, G2))
    return Qs


def krein_Q(T, bases):
    """Q(z) = (G2 J)(G1 J)^{-1} on the jet matrix J of the deficiency basis
    (right basis for halfline triples; (right, left) pair for interfaces).
    Independent of the choice of basis."""
    bases = (bases,) if isinstance(bases, DeficiencyBasis) else tuple(bases)
    jets = [_jets_batch(np.array([[mu for mu, _ in b.entries]]),
                        np.array([[phi for _, phi in b.entries]]), b.order)
            for b in bases]
    return _krein_solve(_triple_layout(T, jets),
                        *T.traces([bases[0].k]))[0]


def _weyl(A, B, Q):
    """Condition matrices (W(i), W(-i)), W(z) = A(k) - B(k) Q(z), from
    (A, B) and the Krein family Q = (Q(i), Q(-i)) stacked over the same
    momenta."""
    return A - B @ Q[0], A - B @ Q[1]


def _unitaries(bc, T, fiber_family, ks, bc_ref=None):
    """U(k) = W(i)^{-1} W(-i), or with bc_ref the relative unitary
    U(k) U_ref(k)^{-1}, at momenta ks; both conditions share one Krein
    family."""
    Q = _krein_family(T, fiber_family.stacks(ks))
    U = np.linalg.solve(*_weyl(*_ab_on(bc, T, ks), Q))
    if bc_ref is not None:
        U = U @ np.linalg.inv(np.linalg.solve(*_weyl(*_ab_on(bc_ref, T, ks),
                                                     Q)))
    return U


def _checked_unitary(bc, T, Q, ks):
    """U = W(i)^{-1} W(-i) from the Krein family Q of the triple T at
    momenta ks, after the checks of the per-point API: (A, B) admissible at
    every momentum and W(i) nonsingular; then every eigenvalue of U must lie
    on the unit circle."""
    A, B = _ab_on(bc, T, ks)
    _check_admissible(bc, ks, A, B)
    Wp, Wm = _weyl(A, B, Q)
    size = np.maximum(1.0, np.abs(Wp).sum(axis=2).max(axis=1))
    singular = np.linalg.svd(Wp, compute_uv=False)[:, -1] <= 1e-12 * size
    if np.any(singular):
        raise InadmissibleConditionError(
            "W(i) is singular at k=%g" % ks[np.argmax(singular)])
    U = np.linalg.solve(Wp, Wm)
    off = np.abs(np.abs(np.linalg.eigvals(U)) - 1.0).max(axis=1)
    if np.any(off >= 1e-8):
        row = int(np.argmax(off >= 1e-8))
        raise NumericalFailure(
            "von Neumann unitary eigenvalues off the unit circle at k=%g"
            % ks[row], data=U[row])
    return U


def vn_unitary(bc, T, F):
    """Von Neumann unitary U = W(i)^{-1} W(-i) of the extension at the
    momentum of the fiber F (a one-row FiberStack); similar to a unitary,
    so its eigenvalues lie on the unit circle."""
    ks = np.array([F.k])
    return _checked_unitary(bc, T, _krein_family(T, F), ks)[0]


# ---------------------------------------------------------------------------
# affiliation verdict

# Deviations below this are roundoff and count as settled.  For identical
# conditions U U_ref^{-1} - 1 is roundoff of the p x p solves and the
# inverse: at most 2.2e-16, one unit of the double epsilon, over the
# self-references of all table conditions.  1e-13 leaves room for a worse
# conditioned W(i) and stays far below the smallest genuine deviation of the
# tables (3.3e-9, at k = 1e4).
_SETTLED = 1e-13


class AffiliationVerdict:
    def __init__(self, verdict, direction, evidence):
        self.verdict = verdict          # 'affiliated' | 'not-affiliated' | 'inconclusive'
        self.direction = direction      # '+', '-', '+-' or None
        self.evidence = evidence        # {'+': [r(1e2), r(1e3), r(1e4)], '-': ...}

    def __repr__(self):
        d = "(%s)" % self.direction if self.direction else ""
        return "%s%s %s" % (self.verdict, d, self.evidence)


def _settles(r_before, r_after):
    return r_after <= r_before * (1 + 1e-6) or r_after < _SETTLED


def affiliation_check(bc, T, fiber_family, bc_ref=None):
    """Decide whether the extension's unitary settles to the reference at
    large momentum.

    Computes r(kappa) = ||U(+-kappa) - U_ref(+-kappa)|| at kappa = 1e2, 1e3,
    1e4 (U_ref = 1 when no reference condition is given).  Affiliated needs a
    non-increasing trend (up to roundoff, _SETTLED) with r(1e4) < 0.05 on
    both sides; a limit above 0.5 on a side reports not-affiliated in that
    direction; anything else is inconclusive.  One Krein family over the six
    momenta serves both conditions.
    """
    kappas = np.array([1e2, 1e3, 1e4])
    ks = np.concatenate([kappas, -kappas])
    Q = _krein_family(T, fiber_family.stacks(ks))
    U = _checked_unitary(bc, T, Q, ks)
    if bc_ref is not None:
        U = U @ np.linalg.inv(_checked_unitary(bc_ref, T, Q, ks))
    dev = np.linalg.norm(U - np.eye(T.dimV), 2, axis=(1, 2))
    evidence = {"+": [float(r) for r in dev[:3]],
                "-": [float(r) for r in dev[3:]]}
    bad = []
    good = []
    for key in ("+", "-"):
        r2, r3, r4 = evidence[key]
        if r4 > 0.5 and r4 > 0.5 * r3:
            bad.append(key)
        elif _settles(r2, r3) and _settles(r3, r4) and r4 < 0.05:
            good.append(key)
    if bad:
        return AffiliationVerdict("not-affiliated", "".join(bad), evidence)
    if len(good) == 2:
        return AffiliationVerdict("affiliated", None, evidence)
    return AffiliationVerdict("inconclusive", None, evidence)


# ---------------------------------------------------------------------------
# Green identity


def green_identity_residual(T, F):
    """Largest relative defect of
    <psi, H* phi> - <H* psi, phi> = <G1 psi, G2 phi> - <G2 psi, G1 phi>
    over deficiency solutions psi at z=i and phi at z = +-i, each scaled to
    a unit jet."""
    ks = np.array([F.k])
    G1, G2 = (G[0] for G in T.traces(ks))
    N = F.sides[0].shape[2]
    solutions = {}
    for z in (1j, -1j):
        sides = _side_bases(F, np.array([z]))
        for *_, code in sides:
            _check_codes(code, ks)
        # per side: L2 sign, exponents, and amplitudes scaled like the jets
        # (the first jet block)
        parts = [(sign, mus[0], J[0, :N])
                 for (mus, _, J, _), sign in zip(sides, (1.0, -1.0))]
        solutions[z] = parts, _triple_layout(T, [s[2] for s in sides])[0]
    parts1, J1 = solutions[1j]
    worst = 0.0
    for z2 in (1j, -1j):
        parts2, J2 = solutions[z2]
        # closed-form L2 products of one-sided exponentials; solutions on
        # opposite sides do not overlap
        inner = np.zeros((J1.shape[1], J2.shape[1]), dtype=complex)
        r = c = 0
        for (sign, mu1, P1), (_, mu2, P2) in zip(parts1, parts2):
            inner[r:r + len(mu1), c:c + len(mu2)] = (
                sign * (P1.conj().T @ P2)
                / (mu1.conj()[:, None] + mu2[None, :]))
            r, c = r + len(mu1), c + len(mu2)
        lhs = (z2 - np.conj(1j)) * inner
        rhs = ((G1 @ J1).conj().T @ (G2 @ J2)
               - (G2 @ J1).conj().T @ (G1 @ J2))
        worst = max(worst, float(np.max(np.abs(lhs - rhs)
                                        / (1.0 + np.abs(lhs)))))
    return worst
