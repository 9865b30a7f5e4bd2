"""Small dense complex linear algebra, adaptive 2D quadrature over the full
plane (refined in rounds, several cell splits per integrand call), and
phase unwinding.

Matrices are plain complex numpy arrays validated by the helpers below
(finite entries, side length at most 64).  Stacks of small matrices have
their own kernels: `_stack_product`, a matrix product as broadcast products
over the inner index, and `_eigh_stack`, a Hermitian eigensolver in closed
form for 2 x 2 and 3 x 3 and by LAPACK otherwise, which serves the Fermi
projections and the curvature integrand of the Chern pairings.  A 3 x 3 row
near a degenerate pair or triple, where the closed form would lose digits,
takes LAPACK too; no row's result depends on the other rows of its stack.
"""

import itertools
from collections import namedtuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ContractViolation, InsufficientResolutionError

MAX_SIZE = 64

# ---------------------------------------------------------------------------
# matrix validation


def as_matrix(M):
    """Coerce to a 2D complex array with finite entries and side <= 64."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2:
        raise ContractViolation("expected a 2D matrix, got ndim=%d" % A.ndim)
    if A.shape[0] > MAX_SIZE or A.shape[1] > MAX_SIZE:
        raise ContractViolation("matrix side exceeds %d: %s" % (MAX_SIZE, (A.shape,)))
    if not np.all(np.isfinite(A.view(float))):
        raise ContractViolation("matrix has non-finite entries")
    return A


def as_square(M):
    A = as_matrix(M)
    if A.shape[0] != A.shape[1]:
        raise ContractViolation("expected a square matrix, got shape %s" % (A.shape,))
    return A


def norm_inf(M):
    """Max absolute row sum (the operator infinity-norm)."""
    A = np.atleast_2d(np.asarray(M))
    return float(np.max(np.sum(np.abs(A), axis=1))) if A.size else 0.0


def check_hermitian(M, rtol=1e-12):
    """Validate the Hermitian tag: ||M - M^dag||_inf < rtol*(1 + ||M||_inf)."""
    A = as_square(M)
    dev = norm_inf(A - A.conj().T)
    if dev >= rtol * (1.0 + norm_inf(A)):
        raise ContractViolation(
            "matrix is not Hermitian within tolerance (deviation %.3e)" % dev)
    return A


# ---------------------------------------------------------------------------
# stacks of small matrices


def _stack_product(A, B):
    """A @ B for stacks A (n, p, q), B (n, q, r) of small matrices, as q
    broadcast products summed over the inner index.  Stacked `@` loops over
    the stack one matrix at a time, several times slower at these sizes."""
    out = A[:, :, 0, None] * B[:, None, 0, :]
    for j in range(1, A.shape[2]):
        out += A[:, :, j, None] * B[:, None, j, :]
    return out


def _eigh_stack(H):
    """Eigenvalues (n, N), ascending, and eigenvectors (n, N, N), one per
    column, of the Hermitian stack H (n, N, N), as np.linalg.eigh gives
    them up to the phase of each eigenvector.

    N = 2 and N = 3 take closed forms on entry-wise (n,) arrays, read from
    the lower triangle as LAPACK reads it (`_eigh_2x2`, `_eigh_3x3`); any
    other N takes LAPACK.  Every row's result depends on that row alone."""
    if H.shape[-1] == 2:
        return _eigh_2x2(H)
    if H.shape[-1] == 3:
        return _eigh_3x3(H)
    return np.linalg.eigh(H)


def _eigh_2x2(H):
    """With H = [[a, b], [b*, c]], d = (a - c)/2 and r = hypot(d, |b|) the
    eigenvalues are (a + c)/2 -+ r.  The lower eigenvector solves the row
    of H - ((a + c)/2 - r) whose diagonal entry is |d| + r, the one that
    does not cancel; the upper one is its orthogonal complement.  No entry
    is squared, so entries near 1e+-150 neither overflow nor underflow, and
    r = 0 (a multiple of the identity) gives the identity."""
    a, c = H[:, 0, 0].real, H[:, 1, 1].real
    b = H[:, 1, 0].conj()
    d = 0.5 * (a - c)
    r = np.hypot(d, np.abs(b))
    mean = 0.5 * (a + c)
    w = np.stack([mean - r, mean + r], axis=1)
    s = np.abs(d) + r
    norm = np.hypot(np.abs(b), s)
    flat = norm == 0.0
    norm[flat] = 1.0
    # row (s, b) when a >= c, row (b*, s) otherwise
    top = d >= 0.0
    x = np.where(top, -b, s) / norm
    y = np.where(top, s, -b.conj()) / norm
    x[flat] = 1.0
    V = np.empty(H.shape, dtype=complex)
    V[:, 0, 0], V[:, 1, 0] = x, y
    V[:, 0, 1], V[:, 1, 1] = -y.conj(), x.conj()
    return w, V


# a 3 x 3 row takes LAPACK when 1 - |r| or a chosen cross product (in units
# of the scaled entries) falls below these: see `_eigh_3x3`
_PAIR_MARGIN = 1.0 / 32
_CROSS_MIN = 1.0 / 32


def _abs2(x):
    """|x|^2 of a complex array, from its real view."""
    f = x.view(float)
    f = f * f
    return f[..., 0::2] + f[..., 1::2]


def _eigh_3x3(H):
    """The trigonometric eigenvalues and cross-product eigenvectors of each
    3 x 3 row (Kopp, Int. J. Mod. Phys. C 19 (2008) 523), with LAPACK for
    the rows where they would lose digits.

    Each row is scaled by the power of two 2^-e that brings its largest
    |H_ij| into [1/2, 1), which is exact, so entries near 1e+-150 neither
    overflow nor underflow.  With q = tr A / 3, B = A - q, p^2 = |B|_F^2 / 6
    and r = det B / (2 p^3) = cos 3 phi, the eigenvalues of B are
    2 p cos(phi + 2 pi j / 3).  For each eigenvalue mu the rows of
    M = B - mu span a plane whose normal is the eigenvector: the cross
    products of the three pairs of rows are its multiples, and the largest
    one is taken.  Its squared norm is at most the product of the squared
    gaps from mu to the other two eigenvalues, and at least a third of it.

    The formula loses digits near a close pair (|r| near 1) and the cross
    product near any close pair or triple (a small norm), so a row with
    1 - |r| < _PAIR_MARGIN or a chosen squared norm below _CROSS_MIN^2
    takes LAPACK instead.  An accepted row's eigenvalues lie at least
    0.05 2^e apart (see tests/test_numerics.py)."""
    n = H.shape[0]
    u, v, w = H[:, 1, 0].conj(), H[:, 2, 0].conj(), H[:, 2, 1].conj()
    a = [H[:, i, i].real for i in range(3)]
    big = np.maximum(np.maximum(np.abs(a[0]), np.abs(a[1])), np.abs(a[2]))
    for x in (u, v, w):
        np.maximum(big, np.abs(x), out=big)
    e = np.clip(np.frexp(big)[1], -1021, 1021)
    down = np.ldexp(1.0, -e)
    a0, a1, a2 = (x * down for x in a)
    # complex operands throughout: a real-times-complex product casts on
    # every call and costs twice a complex one
    down = down + 0j
    u, v, w = u * down, v * down, w * down
    uc, vc, wc = u.conj(), v.conj(), w.conj()
    q = (a0 + a1 + a2) / 3.0
    b0, b1, b2 = a0 - q, a1 - q, a2 - q
    uu, vv, ww = _abs2(u), _abs2(v), _abs2(w)
    P, Q, R = u * w, v * uc, w * vc
    p = np.sqrt((b0 * b0 + b1 * b1 + b2 * b2 + 2.0 * (uu + vv + ww)) / 6.0)
    # det B = b0 b1 b2 + 2 Re(u w v*) - b0 |w|^2 - b1 |v|^2 - b2 |u|^2
    det = (b0 * b1 * b2 + 2.0 * (u.real * R.real - u.imag * R.imag)
           - b0 * ww - b1 * vv - b2 * uu)
    # a row with p <= _CROSS_MIN fails the cross-product test below anyway
    # (no product exceeds (2 sqrt(3) p)^2), and a smaller p^3 can underflow
    live = p > _CROSS_MIN
    r = np.where(live, det / (2.0 * np.where(live, p, 1.0) ** 3), 1.0)
    np.clip(r, -1.0, 1.0, out=r)
    phi = np.arccos(r) / 3.0
    top = 2.0 * p * np.cos(phi)
    bot = 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    good = np.abs(r) <= 1.0 - _PAIR_MARGIN
    b0, b1, b2 = b0 + 0j, b1 + 0j, b2 + 0j
    uu, vv, ww = uu + 0j, vv + 0j, ww + 0j
    Pc, Qc = P.conj(), Q.conj()
    up = np.ldexp(1.0, e)
    w_out = np.empty((n, 3))
    V = np.empty(H.shape, dtype=complex)
    for j, mu in enumerate((bot, -top - bot, top)):
        w_out[:, j] = (q + mu) * up
        mu = mu + 0j
        m0, m1, m2 = b0 - mu, b1 - mu, b2 - mu
        # rows (m0, u, v), (u*, m1, w), (v*, w*, m2): products 01, 02, 12
        cross = ((P - v * m1, Q - w * m0, m0 * m1 - uu),
                 (u * m2 - v * wc, vv - m0 * m2, m0 * wc - Qc),
                 (m1 * m2 - ww, R - uc * m2, Pc - m1 * vc))
        n0, n1, n2 = (_abs2(x) + _abs2(y) + _abs2(z) for x, y, z in cross)
        pick0 = (n0 >= n1) & (n0 >= n2)
        pick1 = ~pick0 & (n1 >= n2)
        norm2 = np.where(pick0, n0, np.where(pick1, n1, n2))
        good &= norm2 >= _CROSS_MIN ** 2
        inv = 1.0 / np.sqrt(np.where(norm2 > 0.0, norm2, 1.0)) + 0j
        for i, (x, y, z) in enumerate(zip(*cross)):
            V[:, i, j] = np.where(pick0, x, np.where(pick1, y, z)) * inv
        del cross  # before the next eigenvalue's nine products
    bad = ~good
    if bad.any():
        w_out[bad], V[bad] = np.linalg.eigh(H[bad])
    return w_out, V


# ---------------------------------------------------------------------------
# adaptive 2D quadrature over the plane

QuadResult = namedtuple("QuadResult", "value error converged cells")

# cell splits (320 nodes) per integrand call at most, a bound on its memory
_SPLITS_PER_CALL = 4


# product Gauss-Legendre rules of orders 8 and 4: nodes and weight matrices
_RULES = tuple((x, np.outer(w, w)) for x, w in (leggauss(8), leggauss(4)))


def _make_cells(f, boxes):
    """Cells (a1, b1, a2, b2, v8, |v8 - v4|) of the s-space boxes, with both
    rules on every box taken from one call of the integrand.

    Each rule is built for all B boxes at once as arrays with one row per
    box: the nodes, their momenta under the tangent compactification of the
    plane onto the open unit square, and the Jacobian of that map.  Node
    (i, j) of a product rule sits at (s1[i], s2[j]), and the integrand sees
    the nodes box by box, the 8-point rule before the 4-point one.  A box's
    value is one sum over its n x n nodes times h1 h2, in the order of a
    rule built for that box alone, so every value is that rule's bit for
    bit.
    """
    a1, b1, a2, b2 = (np.array(col)[:, None] for col in zip(*boxes))
    m1, h1 = (a1 + b1) / 2.0, (b1 - a1) / 2.0
    m2, h2 = (a2 + b2) / 2.0, (b2 - a2) / 2.0
    K1s, K2s, jacs = [], [], []
    for nodes, _ in _RULES:
        # pi s / 2 at the nodes s = m + h x of each box
        t1 = np.pi * (m1 + h1 * nodes) / 2.0
        t2 = np.pi * (m2 + h2 * nodes) / 2.0
        K1s.append(np.repeat(np.tan(t1), nodes.size, axis=1))
        K2s.append(np.tile(np.tan(t2), nodes.size))
        jacs.append((np.pi / 2.0) ** 2 / (np.cos(t1)[:, :, None] ** 2
                                          * np.cos(t2)[:, None, :] ** 2))
    vals = f(np.concatenate(K1s, axis=1).ravel(),
             np.concatenate(K2s, axis=1).ravel()).reshape(len(boxes), -1)
    sums, at = [], 0
    for (_, W), jac in zip(_RULES, jacs):
        v = vals[:, at:at + W.size].reshape(jac.shape)
        sums.append((np.sum(v * jac * W, axis=(1, 2)) * h1[:, 0] * h2[:, 0])
                    .tolist())
        at += W.size
    return [box + (v8, abs(v8 - v4)) for box, v8, v4 in zip(boxes, *sums)]


def quad_2d(f, tol=1e-6, max_cells=6000):
    """Integrate f over the whole (k1,k2) plane.

    The plane is mapped to the open square s in (-1,1)^2 through
    k_i = tan(pi s_i / 2) and the transformed integrand is handled by an
    adaptive product Gauss-Legendre rule (order 8, embedded order 4 for the
    local error estimate), refined in rounds.  With the cells ordered worst
    first (by error, then by creation), a round splits every cell whose
    error plus those of all cells after it exceeds tol.  Refinement one
    worst cell at a time must split each of them before its error total can
    reach tol, so both stop at the same cells.  A round that does not fit
    under max_cells splits up to that bound and ends unconverged.

    f must be array-valued: f(k1, k2) takes two 1D float arrays of momenta
    and returns an array of the same length.  Each call carries both rules
    on the four new cells of at most _SPLITS_PER_CALL splits of one round.

    Returns QuadResult(value, error, converged, cells).  Summation over the
    final cells happens in a fixed sorted order so the result is independent
    of the refinement schedule.
    """
    order = itertools.count()
    leaves = []

    def split(cells):
        boxes = [(x1, y1, x2, y2) for a1, b1, a2, b2 in cells
                 for x1, y1 in ((a1, (a1 + b1) / 2.0), ((a1 + b1) / 2.0, b1))
                 for x2, y2 in ((a2, (a2 + b2) / 2.0), ((a2 + b2) / 2.0, b2))]
        for at in range(0, len(boxes), 4 * _SPLITS_PER_CALL):
            leaves.extend((-c[5], next(order), c) for c in
                          _make_cells(f, boxes[at:at + 4 * _SPLITS_PER_CALL]))

    # start from a 2x2 split so symmetric integrands do not fool the estimate
    split([(-1.0, 1.0, -1.0, 1.0)])
    forced = room = 1
    while 0 < forced <= room:
        # worst first; the unsplit cells stay sorted, so this merges runs
        leaves.sort()
        rest = itertools.accumulate(-e for e, _, _ in reversed(leaves))
        # a NaN error (a NaN in f) is forced, so the loop cannot converge
        forced = sum(1 for r in rest if not r <= tol)
        room = max(0, (max_cells - len(leaves)) // 3)
        worst = [c[:4] for _, _, c in leaves[:min(forced, room)]]
        del leaves[:len(worst)]
        split(worst)

    leaves = sorted((c for _, _, c in leaves), key=lambda c: (c[0], c[2]))
    value = complex(sum(c[4] for c in leaves))
    error = float(sum(c[5] for c in leaves))
    return QuadResult(value, error, forced == 0, len(leaves))


# ---------------------------------------------------------------------------
# phase unwinding


def unwind_phase(samples):
    """Total winding (in turns) of an ordered array of near-unit-circle
    samples, accumulated with the principal branch step by step.

    Consecutive jumps must stay below pi/2; larger jumps mean the sampling
    cannot distinguish the two rotation directions and raise
    InsufficientResolutionError.
    """
    s = np.asarray(samples, dtype=complex).ravel()
    if s.size < 1:
        raise ContractViolation("need at least one sample")
    if not np.all(np.isfinite(s)):
        raise ContractViolation("samples must be finite")
    mags = np.abs(s)
    if np.any(mags <= 0.5) or np.any(mags >= 2.0):
        raise ContractViolation("samples must have magnitude in (0.5, 2)")
    if s.size == 1:
        return 0.0
    steps = np.angle(s[1:] / s[:-1])
    # allow jumps that are exactly a quarter turn in floating point
    if np.any(np.abs(steps) > (np.pi / 2.0) * (1.0 + 1e-9)):
        raise InsufficientResolutionError(
            "phase jump of at least pi/2 between consecutive samples; "
            "refine the sampling")
    return float(np.sum(steps) / (2.0 * np.pi))
