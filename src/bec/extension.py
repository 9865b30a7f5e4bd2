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
the triple's dimV.  A model builds the (A, B) of each named condition in
its own boundary family.

The steps bases -> jets -> products are one kernel, batched over fibers and
spectral points: `_basis_entries` on one side's coefficients, `_full_jets`
on all sides of a fiber stack in a triple's layout, and `_jet_products`,
the one place where jets J meet per-momentum factors.  The level unitary
of the edge eigenvalue count (`_level_phases`) takes (G1 -+ iG2) J from it
at real energies; `_krein_family` takes G1 J and G2 J at z = i for
Q = (G2 J)(G1 J)^{-1}, which the unitaries and the det U of the windings
(`_unitary_dets`) share through W(+-i) = A - B Q(+-i), with
Q(-i) = Q(i)^dag.  Every basis row carries a reason code; the edge
eigenvalue count leaves the failing rows out, and everything else raises
the code's typed error.

The kernel holds every per-row quantity rows last: one (n,) array per
matrix entry, polynomial coefficient, root or exponent, so that every
numpy call loops over the rows, and a reduction over the few entries runs
over the outer axis of a (entries, n) array.  The fiber coefficients come
in as (order+1, N, N, n), the bases go out as exponents (d/2, n),
amplitudes (N, d/2, n) and jets (order*N, d/2, n), the products as
(p, dimV, n), and the two sides of an interface share one batch.
`_side_bases` gives each side's bases in this layout to the Green identity
and to band tracking.

The characteristic polynomial det(sum_j D_j (-mu)^j - z) of a row is
expanded from its entries (`_char_poly`): the entry itself for N = 1 and
a d - b c for N = 2, each entry a polynomial in mu, multiplied out by
coefficient convolution, with no interpolation.

The kernel takes the shapes every edge model has, and rejects the others
where they enter: `BoundaryTriple` raises ContractViolation for N > 2 or
dimV > 2, `_basis_entries` for a fiber of order 0 or with N > 2, and
`_roots` for a row whose characteristic polynomial is not even in mu of
degree 2 or 4, naming its momenta; `_ab_on` makes every condition
dimV x dimV.  A model's bulk determinant is even in the normal momentum,
so its rows have the exponents +-s, s = sqrt(nu), from the nu-linear or
the cancellation-free nu-quadratic formula (`_roots`), and split
d/2 : d/2 between the sides unless a root is on the imaginary axis.  On
those shapes every step has a closed form, chosen from the shapes alone,
never from the batch size: the on-axis, coinciding-exponent and order
tests from elementwise comparisons of the roots; the amplitude of an
exponent as 1 (N = 1) or a normalized cofactor vector (N = 2,
`_kernel_vectors`); the rank test of one or two jet columns
(`_rank_deficient`); and the singular values, determinants and
eigenphases of 1 x 1 or 2 x 2 matrices (`_singular_values`, `_det`,
`_unitary_phases`), which serve the G1 J and W(i) singularity tests, the
admissibility test of iA + B, det U and the level unitary.  Past the
bases LAPACK serves only dimV x dimV work: the stacked solves of the Krein
matrices, the unitaries and the condition factor of the level unitary, and
the checks of U on the per-point API and the large-momentum stage.

The per-point API (`krein_Q`, `vn_unitary`, `green_identity_residual`) is
the kernel on a one-row FiberStack.  One large-momentum stage, six momenta
K_ENDS and one block of end thresholds, serves every decision about |k| ->
infinity, and has three readers.  `affiliation_check` evaluates it alone
(`_end_unitaries`).  The two readers on the momentum line, `edge.winding`
(its closure) and `edge._end_margins` (the end margins of
`edge.level_flow`), take it from the K_ENDS rows of their seed batch: the
stage's unitaries from that batch's Krein family and (A, B)
(`_unitary_dets`), the level unitary's end eigenphases from that batch's
`_level_phases`.  A batch that holds the stage checks its stage rows
first (`_krein_rows` and `_level_phases` return their row checks), so
every stage decision and stage error comes before any other row's error.
"""
import itertools

import numpy as np

from .errors import (
    BoundaryOfRegularityError,
    ContractViolation,
    DegenerateExponentError,
    InadmissibleConditionError,
    NumericalFailure,
    TripleDegeneracyError,
)
from .numerics import _stack_product, as_matrix, norm_inf

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
# Odd coefficients of a characteristic polynomial at or below this fraction
# of its largest make it even in mu.  Expanded from the entries, the odd
# coefficients of the shipped models cancel exactly: over 601 (k, z)
# samples (k in [-30, 30], z cycling through i, -i, -0.5, 0.5) they are 0
# for laplacian, dirac, regdirac and the interface.
_EVEN_TOL = 1e-12
# A quadratic a x^2 + b x + c whose relative discriminant
# |b^2 - 4ac| / (|b|^2 + 4|ac|) is at or below this has a double root: a
# double exponent, for x = mu at degree 2 and x = nu = mu^2 at degree 4.
# The roots of a double root split by about sqrt(eps), too far for
# _CLUSTER_TOL to see.  Over the 2,089,779 regdirac basis rows of the
# benchmark's tables-flow and tables-winding jobs the smallest value on a
# good row is 7.0e-14, 315 eps; a true double root gives a few eps.
_DOUBLE_TOL = 64 * np.finfo(float).eps

# reason codes of a basis row (0: a good row) and the errors they map to
_ON_AXIS, _DEGENERATE, _FAILED = 1, 2, 4
_CODE_ERRORS = {
    _ON_AXIS: (BoundaryOfRegularityError,
               "a decay exponent sits on the imaginary axis"),
    _DEGENERATE: (DegenerateExponentError,
                  "decay exponents coincide or their jets lose rank"),
    _FAILED: (NumericalFailure, "vanishing leading coefficient or "
              "amplitude residual too large"),
}


def _det(M):
    """Determinants (n,) of the p x p matrices, p = 1 or 2, whose entries
    M (p, p, n) hold the rows last: the entry, or a d - b c."""
    if len(M) == 1:
        return M[0, 0]
    return M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]


def _singular_values(M):
    """Singular values (p, n), largest first, of the p x p matrices, p = 1
    or 2, whose entries M (p, p, n) hold the rows last, in closed form.

    Each matrix is first divided by its largest entry, so that entries near
    1e+-150 neither overflow nor underflow when squared.  sigma_max^2 is
    the larger eigenvalue of the Gram matrix M^dag M = [[g, r], [r*, h]],
    (g + h)/2 + hypot((g - h)/2, |r|), a sum of non-negative terms, with g
    and h the squared column norms; then sigma_min = |det M| / sigma_max.
    Neither step cancels, and both values are within a few eps sigma_max of
    LAPACK's."""
    p, n = M.shape[0], M.shape[2]
    mag = np.abs(M)
    size = mag.reshape(p * p, n).max(axis=0)
    if p == 1:
        return size[None]
    unit = np.where(size == 0.0, 1.0, size)
    M = M / unit
    mag = mag / unit
    g, h = (mag * mag).sum(axis=0)
    cross = M[:, 0].conj() * M[:, 1]
    r = np.abs(cross[0] + cross[1])
    out = np.empty((2, n))
    out[0] = np.sqrt(0.5 * (g + h) + np.hypot(0.5 * (g - h), r))
    np.divide(np.abs(_det(M)), np.where(out[0] == 0.0, 1.0, out[0]),
              out=out[1])
    return out * size


def _wrap(theta):
    """Phases in (-pi, pi] of the angles theta."""
    return theta - 2.0 * np.pi * np.ceil((theta - np.pi) / (2.0 * np.pi))


def _unitary_phases(N, R):
    """Eigenphases (p, n) in (-pi, pi] of the unitaries V = N R^{-1}, p = 1
    or 2, whose factors N, R (p, p, n) hold the rows last.

    For p = 1 the phase of N conj(R).  For p = 2, V = e^{i phi} W with
    e^{2 i phi} = det V and W in SU(2), whose eigenvalues e^{+-i omega} give
    the phases phi +- omega: cos omega is the mean of W's diagonal real
    parts, and sin omega the norm of the anti-Hermitian part of W, taken
    from its entries.  Neither cancels where the eigenvalues coincide, as
    the roots of the characteristic polynomial would.
    """
    if len(N) == 1:
        return np.angle(N[0, 0] * R[0, 0].conj())[None]
    (n00, n01), (n10, n11) = N
    (r00, r01), (r10, r11) = R
    d = _det(R)
    v00 = (n00 * r11 - n01 * r10) / d
    v01 = (n01 * r00 - n00 * r01) / d
    v10 = (n10 * r11 - n11 * r10) / d
    v11 = (n11 * r00 - n10 * r01) / d
    phi = 0.5 * np.angle(v00 * v11 - v01 * v10)
    turn = np.exp(-1j * phi)
    w00, w01, w10, w11 = v00 * turn, v01 * turn, v10 * turn, v11 * turn
    omega = np.arctan2(np.hypot(0.5 * (w00.imag - w11.imag),
                                0.5 * np.abs(w10 - w01.conj())),
                       0.5 * (w00.real + w11.real))
    return _wrap(np.stack([phi + omega, phi - omega]))


def _poly_mul(a, b):
    """Coefficients (la + lb - 1, n), by degree, of the products of the
    polynomials with coefficients a (la, n) and b (lb, n)."""
    out = np.zeros((len(a) + len(b) - 1,) + b.shape[1:], dtype=complex)
    for i in range(len(a)):
        out[i:i + len(b)] += a[i] * b
    return out


def _char_poly(E, scale):
    """Characteristic polynomials det(sum_j E_j y^j) in y = -mu, from the
    entries E (order+1, N, N, n), N = 1 or 2, of the coefficient matrices
    with z already subtracted from the diagonal of E_0, in the rescaled
    variable x = mu/scale whose roots are O(1).

    Entry (r, c) is the polynomial sum_j E_j[r, c] y^j; the determinant is
    that entry for N = 1 and a d - b c for N = 2, multiplied out by
    coefficient convolution (`_poly_mul`); the coefficient of y^m then
    takes the factor (-scale)^m.  Returns the coefficients (order*N + 1, n)
    by degree."""
    if E.shape[1] == 1:
        coeffs = 0.0 + E[:, 0, 0]              # a copy, scaled in place below
    else:
        coeffs = (_poly_mul(E[:, 0, 0], E[:, 1, 1])
                  - _poly_mul(E[:, 0, 1], E[:, 1, 0]))
    power = (-scale)[None].repeat(len(coeffs) - 1, axis=0)
    coeffs[1:] *= power.cumprod(axis=0)
    return coeffs


def _roots(coeffs, ks):
    """Principal roots s = sqrt(nu) (d/2, n) of the polynomials in mu with
    coefficients (d+1, n), by degree, at the momenta ks (n,); whether each
    leading coefficient is above _LEAD_TOL of the largest (the roots of a
    row where it is not mean nothing); and which rows have a double root by
    a discriminant.  The roots in mu are +-s.

    Each polynomial must be even in mu of degree d = 2 or 4: its odd
    coefficients at most _EVEN_TOL of its largest.  Any other raises
    ContractViolation naming up to five of its momenta.  nu solves the
    nu-linear, or the nu-quadratic a nu^2 + b nu + c_0, whose roots are q/a
    and c_0/q with q = -(b + t sqrt(b^2 - 4 a c_0))/2, the sign t chosen so
    that b and t sqrt(...) do not cancel.  A row is double where the
    relative discriminant |b^2 - 4ac| / (|b|^2 + 4|ac|) of a x^2 + b x + c
    is at most _DOUBLE_TOL: the polynomial itself at degree 2 (a double
    mu), the nu-quadratic at degree 4 (a double nu); other coinciding roots
    are left to the distance test of `_basis_entries`."""
    d = len(coeffs) - 1
    mag = np.abs(coeffs)
    size = mag.max(axis=0)
    c = coeffs / np.where(size == 0.0, 1.0, size)
    odd = np.abs(c[1::2]).max(axis=0) > _EVEN_TOL
    if d not in (2, 4) or odd.any():
        bad = odd if d in (2, 4) else np.ones(len(ks), dtype=bool)
        raise ContractViolation(
            "characteristic polynomial of degree %d is not even in mu of "
            "degree 2 or 4 at k=%s"
            % (d, np.unique(np.asarray(ks, float)[bad])[:5]))
    ok = mag[-1] > _LEAD_TOL * (size + 1e-300)
    a = np.where(ok, c[-1], 1.0)
    b, c0 = c[d // 2], c[0]
    disc = b * b - 4.0 * a * c0
    double = (np.abs(disc)
              <= _DOUBLE_TOL * (np.abs(b) ** 2 + 4.0 * np.abs(a * c0)))
    if d == 2:
        nu = -c[:1] / a
    else:
        root = np.sqrt(disc)
        root = np.where((b.conj() * root).real >= 0.0, root, -root)
        q = -0.5 * (b + root)
        nu = np.empty((2, len(a)), dtype=complex)
        np.divide(q, a, out=nu[0])
        # q = 0 only when b = c_0 = 0, where both roots are 0
        np.divide(c0, np.where(q == 0.0, 1.0, q), out=nu[1])
    return np.sqrt(nu), ok, double


def _kernel_vectors(C):
    """Unit vectors phi (N, ...) with C phi ~ 0 for the singular N x N
    matrices, N = 1 or 2, whose entries C (N, N, ...) hold the rows last.
    N = 1: phi = 1.  N = 2: the cofactor vector (r_1, -r_0) of the row r of
    C with the larger norm, which that row annihilates exactly; the zero
    matrix gets (1, 0)."""
    if C.shape[0] == 1:
        return np.ones(C.shape[1:], dtype=complex)
    mag = np.abs(C)
    r = np.hypot(mag[:, 0], mag[:, 1])
    size = np.maximum(r[0], r[1])
    zero = size == 0.0
    # (r_1, -r_0) of the row r of larger norm
    phi = np.where(r[0] >= r[1], C[0], C[1])[::-1]
    np.negative(phi[1], out=phi[1])
    first = np.array([1.0, 0.0]).reshape((2,) + (1,) * (C.ndim - 2))
    return np.where(zero, first, phi / np.where(zero, 1.0, size))


def _rank_deficient(J):
    """Rows whose normalized jet columns J (W, p, n), p = 1 or 2, have a
    smallest singular value at most _JET_RANK_TOL.  For two unit columns
    a, b that value is |a - b e^{-i arg <a, b>}| / sqrt(2), which avoids
    both an SVD and the cancellation in sqrt(1 - |<a, b>|)."""
    if J.shape[1] == 1:
        return np.zeros(J.shape[2], dtype=bool)
    a, b = J[:, 0], J[:, 1]
    diff = a - b * np.exp(-1j * np.angle((a.conj() * b).sum(axis=0)))
    smin = np.sqrt((diff.conj() * diff).real.sum(axis=0)) / np.sqrt(2.0)
    return smin <= _JET_RANK_TOL


def _basis_entries(D, ks, zs, sign):
    """Decaying exponential solutions for a stack of fibers, rows last.

    D: the coefficients D_j of the fibers, (order+1, N, N, n), order >= 1
    and N <= 2, whose characteristic polynomials must be even in mu of
    degree d = order*N = 2 or 4 (`_roots`); ks, zs: (n,); sign: +1 for
    solutions that decay on y > 0, -1 on y < 0, for all rows or per row.
    Returns (mus (d/2, n), phis (N, d/2, n), normalized jets
    (order*N, d/2, n), code (n,)).  A row's code is 0 when its basis is
    good; otherwise, by precedence, _FAILED for a vanishing leading
    coefficient, _ON_AXIS for a root on the imaginary axis, _DEGENERATE for
    coinciding roots (closer than _CLUSTER_TOL, or double by a
    discriminant of `_roots`), _FAILED for a poor amplitude residual, and
    _DEGENERATE for rank-deficient jets.  An even row off the axis always
    has d/2 decaying exponents on each side, so no count can fail.

    The exponent of a principal root s is s on y > 0 and -s on y < 0,
    except that a root on the imaginary axis keeps s on either side.  At
    degree 4 the two exponents are ordered by real part, then by imaginary
    part, the first root on a tie; a root on the axis goes after one off
    it.
    """
    order, N, n = D.shape[0] - 1, D.shape[1], D.shape[3]
    if order < 1 or N > 2:
        raise ContractViolation("fiber operator must have order >= 1 and "
                                "N <= 2, got order %d, N = %d" % (order, N))
    ks = np.asarray(ks, dtype=float)
    zs = np.asarray(zs, dtype=complex)
    zmag = np.abs(zs)
    dmax = np.abs(D).reshape(order + 1, N * N, n).max(axis=1)
    E = D.copy()
    for r in range(N):
        E[0, r, r] -= zs
    scale = 1.0 + np.abs(ks) + zmag ** (1.0 / order)
    s, lead_ok, clustered = _roots(_char_poly(E, scale), ks)
    plus, minus = s * scale, -s * scale                        # (d/2, n)
    mag = np.abs(plus)
    on_axis = (np.abs(plus.real) < _REAL_MARGIN * (1.0 + mag)).any(axis=0)
    # the distances between the roots +-s: 2|s_i| and |s_0 -+ s_1|
    gaps = [np.abs(2.0 * plus)]
    if len(plus) == 2:
        gaps += [np.abs(plus[:1] - plus[1]), np.abs(plus[:1] + plus[1])]
    clustered |= ~(np.concatenate(gaps).min(axis=0)
                   >= _CLUSTER_TOL * (1.0 + mag.max(axis=0)))
    good = plus.real > 0.0
    mus = np.where(good & (np.asarray(sign) < 0.0), minus, plus)
    if len(mus) == 2:
        key_real = np.where(good, mus.real, 1e30)
        key_imag = np.where(good, mus.imag, 0.0)
        swap = (key_real[1] < key_real[0]) | (
            (key_real[1] == key_real[0]) & (key_imag[1] < key_imag[0]))
        mus = np.where(swap, mus[::-1], mus)
    expect = len(mus)
    neg = -mus
    pw = [None] + [neg ** j for j in range(1, order + 1)]
    C = E[0][:, :, None]
    for j in range(1, order + 1):
        C = C + E[j][:, :, None] * pw[j]                       # (N, N, e, n)
    phis = _kernel_vectors(C)                                     # (N, e, n)
    res = C[:, 0] * phis[0]
    for c in range(1, N):
        res = res + C[:, c] * phis[c]
    resid = np.abs(res).reshape(N * expect, n).max(axis=0, initial=0.0)
    # yardstick: magnitude of the terms that cancel at the roots (C itself
    # is ~0 there, so its norm is useless as a scale)
    mumax = np.maximum(1.0, np.abs(mus)).max(axis=0, initial=1.0)
    terms = dmax * mumax ** np.arange(order + 1)[:, None]
    tscale = zmag
    for t in terms:
        tscale = tscale + t
    # jets (phi, -mu phi, mu^2 phi, ..., (-mu)^{order-1} phi) at y = 0,
    # each solution's column scaled to unit norm
    J = np.empty((order, N, expect, n), dtype=complex)
    J[0] = phis
    for j in range(1, order):
        np.multiply(pw[j], phis, out=J[j])
    J = J.reshape(order * N, expect, n)
    nrm = np.sqrt((J.conj() * J).real.sum(axis=0))
    J /= np.where(nrm == 0.0, 1.0, nrm)
    # later tests take precedence
    code = np.where(_rank_deficient(J), _DEGENERATE, 0)
    code = np.where(resid <= _RESID_TOL * (1.0 + tscale), code, _FAILED)
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
    interface's second, one `_basis_entries` result per side, rows last."""
    return [_basis_entries(np.moveaxis(Ds, 0, -1), F.ks, zs, sign)
            for Ds, sign in zip(F.sides, (1.0, -1.0))]


def _triple_layout(T, jets):
    """The sides' jet matrices (order*N, d/2, n), rows last, in the
    triple's layout (W, dimV, n): the right side's for a halfline triple;
    for an interface, solutions on y > 0 have a vanishing jet at 0-, and
    vice versa.  The deficiency space must have the triple's dimension
    dimV."""
    dim = sum(J.shape[1] for J in jets)
    if dim != T.dimV:
        raise TripleDegeneracyError(
            "deficiency space has dimension %d, dimV=%d" % (dim, T.dimV))
    if len(jets) == 1:
        return jets[0]
    jp, jm = jets
    w, ep = T.order * T.N, jp.shape[1]
    J = np.zeros((2 * w, dim, jp.shape[2]), dtype=complex)
    J[:w, :ep] = jp
    J[w:, ep:] = jm
    return J


def _full_jets(T, sides, ks, zs):
    """Jet matrices (W, dimV, n), rows last, in the triple's layout for the
    fibers whose coefficients, rows last, are sides (one (order+1, N, N, n)
    stack per side, all of one shape), each at its own spectral point zs;
    and the code (n,) of the first side whose basis fails.  An interface's
    two sides share one `_basis_entries` batch, the rows of y > 0 first."""
    n = len(ks)
    if len(sides) == 1:
        _, _, J, code = _basis_entries(sides[0], ks, zs, 1.0)
        return _triple_layout(T, [J]), code
    _, _, J, code = _basis_entries(
        np.concatenate(sides, axis=-1), np.concatenate([ks, ks]),
        np.concatenate([zs, zs]), np.array([1.0, -1.0]).repeat(n))
    first = np.where(code[:n] != 0, code[:n], code[n:])
    return _triple_layout(T, [J[..., :n], J[..., n:]]), first


# ---------------------------------------------------------------------------
# boundary triples


class BoundaryTriple:
    """Trace maps G1, G2 from solution jets to the auxiliary space C^dimV.

    side 'halfline': jets are the order*N derivatives at y=0 of a function on
    y>0.  side 'interface': jets are stacked (jet at 0+, jet at 0-) and have
    twice the length.  G1 and G2 may be polynomial in k (list of coefficient
    matrices); most triples are constant.  `traces` evaluates them.  The
    kernel takes N <= 2 and dimV <= 2, the shapes of every edge model.
    """

    def __init__(self, dimV, side, G1, G2, order, N):
        if side not in ("halfline", "interface"):
            raise ContractViolation("side must be 'halfline' or 'interface'")
        self.dimV = int(dimV)
        self.side = side
        self.order = int(order)
        self.N = int(N)
        if self.N > 2 or self.dimV > 2:
            raise ContractViolation("a triple needs N <= 2 and dimV <= 2, "
                                    "got N = %d, dimV = %d"
                                    % (self.N, self.dimV))
        shape = (self.dimV,
                 self.order * self.N * (2 if side == "interface" else 1))
        self.G1_coeffs, self.G2_coeffs = [
            [as_matrix(G) for G in (Gs if isinstance(Gs, (list, tuple))
                                    else [Gs])] for Gs in (G1, G2)]
        for G in self.G1_coeffs + self.G2_coeffs:
            if G.shape != shape:
                raise ContractViolation("trace map shape %s, expected %s"
                                        % (G.shape, shape))

    def traces(self, ks):
        """Trace maps (G1(k), G2(k)) stacked over the momenta ks, shape
        (len(ks), dimV, jet width) each."""
        return (_poly_stack(self.G1_coeffs, ks),
                _poly_stack(self.G2_coeffs, ks))


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
    degree; `from_ab` builds a condition from such data.
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


def _admissibility(A, B):
    """For (A, B) stacked over momenta: the smallest singular values of
    iA + B, the Hermiticity defects of A B^dag, and which rows fail the
    admissibility test on either."""
    ms = _singular_values((1j * A + B).transpose(1, 2, 0))[-1]
    AB = A @ B.conj().transpose(0, 2, 1)
    herm = np.abs(AB - AB.conj().transpose(0, 2, 1)).sum(axis=2).max(axis=1)
    size = np.abs(A).sum(axis=2).max(axis=1)
    return ms, herm, (ms <= 1e-10) | (herm >= 1e-10 * (1.0 + size))


def _admissible(bc, ks, A, B):
    """Which rows of the condition's (A, B), stacked over the momenta ks,
    fail the admissibility test, and check(rows), which raises
    InadmissibleConditionError at the first failing momentum of ks[rows]
    (rows a slice, all of them by default)."""
    ms, herm, bad = _admissibility(A, B)

    def check(rows=slice(None)):
        fail = np.arange(len(ks))[rows][bad[rows]]
        if len(fail) == 0:
            return
        i = fail[0]
        if ms[i] <= 1e-10:
            raise InadmissibleConditionError(
                "%s: iA+B numerically singular at k=%g (min sing %.2e)"
                % (bc.label, ks[i], ms[i]))
        raise InadmissibleConditionError(
            "%s: A B^dag not Hermitian at k=%g (defect %.2e)"
            % (bc.label, ks[i], herm[i]))
    return bad, check


def _ab_on(bc, T, ks):
    """The condition's (A, B) stacked over ks, where it meets the triple T:
    both must act on the same auxiliary space C^dimV."""
    if bc.dim != T.dimV:
        raise ContractViolation(
            "%s: a %dx%d condition does not fit the %s triple (dimV=%d)"
            % (bc.label, bc.dim, bc.dim, T.side, T.dimV))
    return bc.ab_batch(ks)


# ---------------------------------------------------------------------------
# jet products: one kernel for the level unitary and the Krein matrices


def _jet_products(T, F, factors):
    """Products X J(k, z) of per-momentum factors X, stacks (n, p, W) over
    the momenta of F (such as G1 and G2, or G1 +- iG2), with the jets of
    the fibers F (a FiberStack), rows last.  The factors and the fiber
    coefficients are laid out once.  Returns products(rows, zs) -> (list of
    X J (p, dimV, n), one per factor, code (n,)): the fibers of the momenta
    indexed by rows, each at its own spectral point zs, share one jet batch
    (`_full_jets`), and each X J is summed term by term, one product over
    the rows per jet component, so a row's products do not depend on its
    batch.
    """
    D = [np.moveaxis(Ds, 0, -1).copy() for Ds in F.sides]
    X = [np.moveaxis(x, 0, -1).copy() for x in factors]

    def products(rows, zs):
        J, code = _full_jets(T, [Ds[..., rows] for Ds in D], F.ks[rows],
                             np.asarray(zs, dtype=complex))
        out = []
        for x in X:
            xr = x[..., rows]
            XJ = xr[:, 0, None] * J[0]
            for k in range(1, len(J)):
                XJ = XJ + xr[:, k, None] * J[k]
            out.append(XJ)
        return out, code
    return products


def _level_phases(bc, T, F):
    """Eigenphases of the level unitaries V(k, E) = U_bc^dag U_E of the
    condition bc over the fibers F (a FiberStack), at real energies E.

    At a real E in the gap the boundary values (X, Y) = (G1 J, G2 J) of the
    decaying solutions span a Lagrangian plane, with the unitary
    U_E = (X - iY)(X + iY)^{-1}; the condition's plane has
    U_bc = (B^dag - iA^dag)(B^dag + iA^dag)^{-1}.  The planes meet, and E is
    an edge eigenvalue at k, exactly where V has the eigenvalue 1.
    U_bc^dag = (B - iA)^{-1}(B + iA) is solved once per momentum; X and Y
    are the `_jet_products` of G1 and G2, and V = N R^{-1} with
    N = U_bc^dag (X - iY) and R = X + iY is formed entry by entry
    (`_unitary_phases`).  Returns phases(rows, lams) -> (eigenphases
    (dimV, n) in (-pi, pi], code (n,)) at the fibers of the momenta indexed
    by rows, and admissible(rows), the check of `_admissible` over the
    momenta of F.  A failing basis never raises here, and a row's phases do
    not depend on its batch.  The phases of a row read where the condition
    fails the admissibility test mean nothing (an identity stands in for
    its B - iA), so every caller checks those rows first.
    """
    A, B = _ab_on(bc, T, F.ks)
    bad, admissible = _admissible(bc, F.ks, A, B)
    C = B - 1j * A
    if bad.any():
        C[bad] = np.eye(T.dimV)
    adj = np.moveaxis(np.linalg.solve(C, B + 1j * A), 0, -1).copy()
    products = _jet_products(T, F, T.traces(F.ks))
    p = T.dimV

    def phases(rows, lams):
        (X, Y), code = products(rows, lams)
        C, P = adj[..., rows], X - 1j * Y
        # products of whole (n,) rows only: a broadcast product may take
        # another rounding (a fused multiply-add) at another batch size
        N = np.empty_like(P)
        for i, j in itertools.product(range(p), repeat=2):
            N[i, j] = C[i, 0] * P[0, j]
            for k in range(1, p):
                N[i, j] += C[i, k] * P[k, j]
        return _unitary_phases(N, X + 1j * Y), code
    return phases, admissible


# ---------------------------------------------------------------------------
# Krein matrix, condition matrix, von Neumann unitary
#
# U and det U come from W = A - B Q, not from M = W (G1 J): the condition
# numbers of W and G1 J multiply in M, and rounding from a row mixing
# (R A, R B) is amplified by both.  For regdirac a = 2 at k = 1e4 they are
# 3e4 (W), 5e3 (G1 J) and 1.6e8 (M); det U from M moved by 3e-9 cond R under
# R(k) = R0 (k + i diag(1, 3)), and by 2e-14 cond R from W.


def _krein_rows(T, F, z=1j):
    """Krein matrices Q(z) = (G2 J)(G1 J)^{-1}, (n, dimV, dimV), of the
    fibers F (a FiberStack, as `FiberFamily.stacks` returns it) at z, i but
    for `krein_Q`: G1 J and G2 J are the `_jet_products` of one jet batch.
    Returns Q and check(rows), which raises the typed error of the first
    failing basis row of the rows (a slice, all of them by default), then
    TripleDegeneracyError where G1 J is singular there; Q means nothing on
    such a row (an identity stands in for its G1 J).

    Every boundary condition over the same momenta shares Q.  Q(-i) is
    Q(i)^dag (`test_krein_Q_conjugation_symmetry`), never computed: the
    Green identity <G1 psi, G2 phi> - <G2 psi, G1 phi> = (z' - conj z)
    <psi, phi>, psi in N_z and phi in N_z', vanishes at z' = conj z.
    """
    (X, Y), code = _jet_products(T, F, T.traces(F.ks))(
        np.arange(len(F.ks)), np.full(len(F.ks), complex(z)))
    sv = _singular_values(X)
    singular = sv[-1] <= 1e-10 * (1.0 + sv[0])
    bad = (code != 0) | singular
    if bad.any():
        X[..., bad] = np.eye(T.dimV)[..., None]

    def check(rows=slice(None)):
        _check_codes(code[rows], F.ks[rows])
        if np.any(singular[rows]):
            raise TripleDegeneracyError(
                "G1 restricted to the deficiency space is singular")
    # Q = Y X^{-1}: Q^T solves X^T Q^T = Y^T
    return np.linalg.solve(X.transpose(2, 1, 0),
                           Y.transpose(2, 1, 0)).transpose(0, 2, 1), check


def _krein_family(T, F, z=1j):
    """`_krein_rows` with every row checked: Q, or the typed error of the
    first failing basis row, or TripleDegeneracyError."""
    Q, check = _krein_rows(T, F, z)
    check()
    return Q


def krein_Q(T, F, z):
    """Q(z) = (G2 J)(G1 J)^{-1}, J the deficiency jets of the one-row
    FiberStack F at z, in any basis; Q(conj z)^dag below the real axis."""
    if complex(z).imag < 0.0:
        return krein_Q(T, F, np.conj(z)).conj().T
    return _krein_family(T, F, z)[0]


def _weyl(A, B, Q):
    """Condition matrices (W(i), W(-i)), W(z) = A - B Q(z), of a condition's
    (A, B) stacked over some momenta, from Q = Q(i) over the same momenta
    and Q(-i) = Q(i)^dag."""
    return (A - _stack_product(B, Q),
            A - _stack_product(B, Q.conj().transpose(0, 2, 1)))


def _unitary(ks, A, B, Q):
    """Von Neumann unitaries U(k) = W(i)^{-1} W(-i) of a condition's (A, B)
    over the momenta ks, from the Krein family Q(i) over the same momenta.
    Raises InadmissibleConditionError where W(i) is singular: its smallest
    singular value at most 1e-12 max(1, ||W(i)||_inf)."""
    Wp, Wm = _weyl(A, B, Q)
    size = np.maximum(1.0, np.abs(Wp).sum(axis=2).max(axis=1))
    singular = _singular_values(Wp.transpose(1, 2, 0))[-1] <= 1e-12 * size
    if np.any(singular):
        raise InadmissibleConditionError(
            "W(i) is singular at k=%g" % ks[np.argmax(singular)])
    return np.linalg.solve(Wp, Wm)


def vn_unitary_family(bc, T, fiber_family, ks):
    """Von Neumann unitaries U(k) = W(i)^{-1} W(-i) stacked over the
    momenta ks, with fiber_family a `FiberFamily`
    (`ModelDescriptor.fiber_family`)."""
    ks = np.asarray(ks, dtype=float)
    Q = _krein_family(T, fiber_family.stacks(ks))
    return _unitary(ks, *_ab_on(bc, T, ks), Q)


def _unitary_dets(bc, T, fiber_family, ks, bc_ref=None, stage=None):
    """det U(k) = det W(-i) / det W(i) over the momenta ks, without forming
    U; with bc_ref, det U U_ref^{-1}
    = det W(-i) det W_ref(i) / (det W(i) det W_ref(-i)).  The determinants
    are taken entry by entry (`_det`), both conditions share one Krein
    family Q(i), and each condition's (A, B) is evaluated once.

    With stage, ks starts with the stage's momenta K_ENDS: their rows give
    the stage's unitaries (`_stage_unitaries`) to stage(U), after the checks
    of those rows and before any other row is checked, and the dets of the
    other rows come back."""
    ks = np.asarray(ks, dtype=float)
    Q, check = _krein_rows(T, fiber_family.stacks(ks))
    n = 0 if stage is None else len(K_ENDS)
    if n:
        check(slice(0, n))
    bcs = [c for c in (bc, bc_ref) if c is not None]
    ab = [_ab_on(c, T, ks) for c in bcs]
    if n:
        stage(_stage_unitaries(bcs, [(A[:n], B[:n]) for A, B in ab], Q[:n]))
    check(slice(n, None))
    (plus, minus), *ref = [[_det(W.transpose(1, 2, 0))
                            for W in _weyl(A[n:], B[n:], Q[n:])]
                           for A, B in ab]
    if not ref:
        return minus / plus
    (ref_plus, ref_minus), = ref
    return minus * ref_plus / (plus * ref_minus)


def _checked_unitary(bc, ks, A, B, Q):
    """`_unitary` of the condition bc from its (A, B) and the Krein family
    Q(i) at momenta ks, after the checks of the per-point API: (A, B)
    admissible at every momentum and W(i) nonsingular; then every
    eigenvalue of U must lie on the unit circle."""
    _admissible(bc, ks, A, B)[1]()
    U = _unitary(ks, A, B, Q)
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
    Q = _krein_family(T, F)
    return _checked_unitary(bc, ks, *_ab_on(bc, T, ks), Q)[0]


# ---------------------------------------------------------------------------
# large-momentum stage: every decision about |k| -> infinity

# the ladder of |k|, whose top stands in for |k| = infinity; the stage's
# momenta in one fixed order, +K_LADDER then -K_LADDER, and each side's rows
K_LADDER = (1e2, 1e3, 1e4)
K_LIMIT = K_LADDER[-1]
K_ENDS = K_LADDER + tuple(-k for k in K_LADDER)
_SIDES = {"+": slice(0, 3), "-": slice(3, 6)}

# End thresholds.  On every table condition, alone and against its table
# reference, r = ||U U_ref^{-1} - 1|| at K_LIMIT is <= 3.0e-4 on both sides
# when affiliated and >= 1.41 on one side when not.  r < _SETTLE there
# settles, and a winding's loop closes when its ends are that close; r >
# _APART there and above _APART times r one rung below is not affiliated.
_SETTLE = 0.05
_APART = 0.5
# a non-increasing trend may rise by this fraction per rung; no table verdict
# turns on it: affiliated ones fall a decade per rung or sit at roundoff
_TREND_SLACK = 1e-6
# Deviations below this are roundoff and count as settled.  For identical
# conditions U U_ref^{-1} - 1 is roundoff of the p x p solves and the
# inverse: at most 2.2e-16, one unit of the double epsilon, over the
# self-references of all table conditions.  1e-13 leaves room for a worse
# conditioned W(i) and stays far below the smallest genuine deviation of the
# tables (3.3e-9, at k = 1e4).
_SETTLED = 1e-13
# The eigenphase bound below which an end eigenphase of the level unitary
# must keep its sign and shrink along K_LADDER (`edge._end_margins`).
# Smallest end phases measured on 1e2, 1e3, 1e4: Laplacian |xi| = 1
# -1.97e-4, -2.00e-6, -2.00e-8; regdirac 2e-1, 2e-2, 2e-3; Dirac and the
# interface none below 0.9 rad.
_END_PHASE = 0.1


def _stage_unitaries(bcs, ab, Q):
    """The stage's evaluation from the Krein family Q(i) (6, dimV, dimV) and
    each condition's (A, B) on K_ENDS: U of bcs[0], or with a reference
    bcs[1], U U_ref^{-1}.  Each condition passes the checks of
    `_checked_unitary`, bcs[0] first."""
    ks = np.array(K_ENDS)
    U = [_checked_unitary(c, ks, A, B, Q) for c, (A, B) in zip(bcs, ab)]
    return U[0] if len(U) == 1 else U[0] @ np.linalg.inv(U[1])


def _end_unitaries(bc, T, fiber_family, bc_ref=None):
    """The stage alone, as `affiliation_check` reads it: U (6, dimV, dimV)
    of bc on K_ENDS, or with bc_ref U U_ref^{-1}, from one Krein family
    Q(i) of the six momenta (`_stage_unitaries`)."""
    ks = np.array(K_ENDS)
    Q = _krein_family(T, fiber_family.stacks(ks))
    bcs = [c for c in (bc, bc_ref) if c is not None]
    return _stage_unitaries(bcs, [_ab_on(c, T, ks) for c in bcs], Q)


class AffiliationVerdict:
    def __init__(self, verdict, direction, evidence):
        self.verdict = verdict          # 'affiliated' | 'not-affiliated' | 'inconclusive'
        self.direction = direction      # '+', '-', '+-' or None
        self.evidence = evidence        # {'+': [r(1e2), r(1e3), r(1e4)], '-': ...}

    def __repr__(self):
        d = "(%s)" % self.direction if self.direction else ""
        return "%s%s %s" % (self.verdict, d, self.evidence)


def _settles(r_before, r_after):
    return r_after <= r_before * (1 + _TREND_SLACK) or r_after < _SETTLED


def affiliation_check(bc, T, fiber_family, bc_ref=None):
    """Decide whether the extension's unitary settles to the reference at
    large momentum.

    Reads r(kappa) = ||U(+-kappa) U_ref(+-kappa)^{-1} - 1||_2 on the stage
    (`_end_unitaries`, U_ref = 1 when no reference condition is given).  A
    side with r(1e4) > _APART and r(1e4) > _APART r(1e3) reports
    not-affiliated in that direction; affiliated needs, on both sides, a
    non-increasing trend (up to the slack _TREND_SLACK, or below _SETTLED)
    with r(1e4) < _SETTLE; anything else is inconclusive.
    """
    dev = np.linalg.norm(_end_unitaries(bc, T, fiber_family, bc_ref)
                         - np.eye(T.dimV), 2, axis=(1, 2))
    evidence = {key: dev[rows].tolist() for key, rows in _SIDES.items()}
    bad, good = [], []
    for key, (r2, r3, r4) in evidence.items():
        if r4 > _APART and r4 > _APART * r3:
            bad.append(key)
        elif _settles(r2, r3) and _settles(r3, r4) and r4 < _SETTLE:
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
        parts = [(sign, mus[:, 0], J[:N, :, 0])
                 for (mus, _, J, _), sign in zip(sides, (1.0, -1.0))]
        solutions[z] = parts, _triple_layout(T, [s[2] for s in sides])[..., 0]
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
