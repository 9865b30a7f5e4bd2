"""The deficiency-basis and level-unitary kernel in its stacked layout, as
reference code for the entry-wise kernel in `bec.extension`.

Every per-row quantity here is a stacked array (n, ...) whose small axes
(matrix entries, exponents, polynomial coefficients) are inner axes, and
numpy reductions, `@`, `einsum`, `lexsort` and `take_along_axis` run over
them.  The kernel in `src` computes the same formulas with one (n,) array
per entry.  `tests/test_entrywise_kernel.py` compares the two row by row.

The reference keeps the general shapes that the kernel rejects: the Leibniz
expansion for any N, companion-matrix roots for a polynomial that is not
even of degree 2 or 4, the sort of all d roots with the wrong-count code
_WRONG_COUNT, and SVDs for N > 2 and more than two jet columns.  On the
shapes of the edge models both give the same bits.
"""
import functools
import itertools

import numpy as np

from bec.errors import ContractViolation, TripleDegeneracyError
from bec.extension import (
    _CLUSTER_TOL,
    _DEGENERATE,
    _DOUBLE_TOL,
    _EVEN_TOL,
    _FAILED,
    _JET_RANK_TOL,
    _LEAD_TOL,
    _ON_AXIS,
    _REAL_MARGIN,
    _RESID_TOL,
    _ab_on,
)

# reason code of a row whose roots do not split into `expect` on the
# requested side; the kernel has no such rows
_WRONG_COUNT = 3


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


def _poly_mul(a, b):
    """Coefficients (la + lb - 1, n) of the products of the polynomials
    with coefficients a (la, n) and b (lb, n), by degree along axis 0."""
    out = np.zeros((len(a) + len(b) - 1,) + b.shape[1:], dtype=complex)
    for i in range(len(a)):
        out[i:i + len(b)] += a[i] * b
    return out


@functools.lru_cache(maxsize=None)
def _permutations(N):
    """The N! permutations of range(N), each with its sign."""
    return tuple((s, (-1) ** sum(s[i] > s[j] for i in range(N)
                                 for j in range(i + 1, N)))
                 for s in itertools.permutations(range(N)))


def _char_poly(Ds, ks, zs):
    """Characteristic polynomials det(sum_j D_j (-mu)^j - z) of a fiber
    stack, in the rescaled variable x = mu/scale whose roots are O(1):
    keeps the companion matrix well balanced at large k.

    Expanded from the entries by the Leibniz formula: entry (r, c) is the
    polynomial sum_j D_j[r, c] y^j - z delta_rc in y = -mu, and the
    determinant is the signed sum, over the N! permutations s, of the
    products of the entries (r, s(r)), multiplied out by coefficient
    convolution; the coefficient of y^m then takes the factor (-scale)^m.
    For N = 1 that is the entry itself, for N = 2 the polynomial
    a d - b c.  The rows run along the last axis of the work arrays, so
    that each numpy call loops over them.  Returns (coefficients
    (n, order*N + 1) by degree, scale)."""
    order, N = Ds.shape[1] - 1, Ds.shape[2]
    scale = 1.0 + np.abs(ks) + np.abs(zs) ** (1.0 / order)
    E = np.moveaxis(Ds, 0, -1).copy()                        # (j, N, N, n)
    for r in range(N):
        E[0, r, r] -= zs
    coeffs = 0.0
    for s, sign in _permutations(N):
        prod = E[:, 0, s[0]]
        for r in range(1, N):
            prod = _poly_mul(prod, E[:, r, s[r]])
        coeffs = coeffs + prod if sign > 0 else coeffs - prod
    power = np.ones(len(ks))
    for m in range(1, len(coeffs)):
        power = power * -scale
        coeffs[m] *= power
    return coeffs.T, scale


def _lead_ok(coeffs):
    """Whether each leading coefficient is above _LEAD_TOL of the largest
    (the roots of a row where it is not mean nothing)."""
    return np.abs(coeffs[:, -1]) > _LEAD_TOL * (np.abs(coeffs).max(axis=1)
                                                + 1e-300)


def _companion_roots(coeffs):
    """Roots (n, d) of the polynomials with coefficient rows (n, d+1), by
    degree, as companion-matrix eigenvalues, and `_lead_ok`."""
    n, d = coeffs.shape[0], coeffs.shape[1] - 1
    ok = _lead_ok(coeffs)
    lead = np.where(ok, coeffs[:, -1], 1.0)
    comp = np.zeros((n, d, d), dtype=complex)
    if d > 1:
        comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    comp[:, :, -1] = -coeffs[:, :-1] / lead[:, None]
    return np.linalg.eigvals(comp), ok


def _double_root(a, b, c):
    """Whether a x^2 + b x + c has a double root: its relative discriminant
    |b^2 - 4ac| / (|b|^2 + 4|ac|) is at most _DOUBLE_TOL."""
    return (np.abs(b * b - 4.0 * a * c)
            <= _DOUBLE_TOL * (np.abs(b) ** 2 + 4.0 * np.abs(a * c)))


def _even_roots(c, a):
    """Roots +-sqrt(nu) (n, d) of even polynomials with coefficient rows c
    (n, d+1), d = 2 or 4, and leading coefficients a, from the roots nu of
    the nu-linear or nu-quadratic a nu^2 + b nu + c_0.  The quadratic's
    roots are q/a and c_0/q with q = -(b + s sqrt(b^2 - 4 a c_0))/2, the
    sign s chosen so that b and s sqrt(...) do not cancel."""
    if c.shape[1] == 3:
        nu = -c[:, :1] / a[:, None]
    else:
        b, c0 = c[:, 2], c[:, 0]
        root = np.sqrt(b * b - 4.0 * a * c0)
        root = np.where((b.conj() * root).real >= 0.0, root, -root)
        q = -0.5 * (b + root)
        # q = 0 only when b = c_0 = 0, where both roots are 0
        nu = np.stack([q / a, c0 / np.where(q == 0.0, 1.0, q)], axis=1)
    s = np.sqrt(nu)
    return np.concatenate([s, -s], axis=1)


def _roots(coeffs):
    """Roots (n, d) of the polynomials with coefficient rows (n, d+1), by
    degree, `_lead_ok`, and which rows have a double root by a
    discriminant (`_double_root`).

    A row of degree 2 or 4 whose odd coefficients are at most _EVEN_TOL of
    its largest takes `_even_roots`; every other row takes
    `_companion_roots`.  A row of degree 2 is tested for a double mu, an
    even row of degree 4 for a double nu = mu^2; other double roots are left
    to the distance test of `_basis_batch`.  The choice is made row by row,
    so a row's roots never depend on the other rows of its batch."""
    n, d = coeffs.shape[0], coeffs.shape[1] - 1
    size = np.abs(coeffs).max(axis=1)
    c = coeffs / np.where(size == 0.0, 1.0, size)[:, None]
    ok = _lead_ok(coeffs)
    a = np.where(ok, c[:, -1], 1.0)
    even = np.zeros(n, dtype=bool)
    double = np.zeros(n, dtype=bool)
    if d in (2, 4):
        even = np.abs(c[:, 1::2]).max(axis=1) <= _EVEN_TOL
    if d == 2:
        double = _double_root(a, c[:, 1], c[:, 0])
    elif d == 4:
        double = even & _double_root(a, c[:, 2], c[:, 0])
    roots = np.empty((n, d), dtype=complex)
    if np.any(even):
        roots[even] = _even_roots(c[even], a[even])
    if not np.all(even):
        roots[~even] = _companion_roots(coeffs[~even])[0]
    return roots, ok, double


def _kernel_vectors(C):
    """Unit vectors phi (..., N) with C phi ~ 0 for the singular N x N
    matrices C (..., N, N).  N = 1: phi = 1.  N = 2: the cofactor vector
    (r_1, -r_0) of the row r of C with the larger norm, which that row
    annihilates exactly; the zero matrix gets (1, 0).  Larger N: the last
    right singular vector."""
    N = C.shape[-1]
    if N == 1:
        return np.ones(C.shape[:-1], dtype=complex)
    if N > 2:
        return np.linalg.svd(C)[2][..., -1, :].conj()
    r0, r1 = (np.hypot(np.abs(C[..., i, 0]), np.abs(C[..., i, 1]))
              for i in (0, 1))
    row = np.where((r0 >= r1)[..., None], C[..., 0, :], C[..., 1, :])
    phi = np.stack([row[..., 1], -row[..., 0]], axis=-1)
    size = np.maximum(r0, r1)[..., None]
    return np.where(size == 0.0, np.array([1.0, 0.0]),
                    phi / np.where(size == 0.0, 1.0, size))


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
    imaginary axis, _DEGENERATE for coinciding roots (closer than
    _CLUSTER_TOL, or double by a discriminant of `_roots`), _WRONG_COUNT
    when the roots do not split into `expect` on the requested side, _FAILED
    for a poor amplitude residual, and _DEGENERATE for rank-deficient jets.
    """
    order = Ds.shape[1] - 1
    if order < 1:
        raise ContractViolation("fiber operator must have order >= 1")
    ks = np.asarray(ks, dtype=float)
    zs = np.asarray(zs, dtype=complex)
    coeffs, scale = _char_poly(Ds, ks, zs)
    roots, lead_ok, clustered = _roots(coeffs)
    roots = roots * scale[:, None]                                # (n, d)
    d = roots.shape[1]
    top = 1.0 + np.max(np.abs(roots), axis=1)
    on_axis = np.any(np.abs(roots.real) < _REAL_MARGIN * (1.0 + np.abs(roots)),
                     axis=1)
    if d > 1:
        pair = np.abs(roots[:, :, None] - roots[:, None, :])
        pair += 1e30 * np.eye(d)[None]
        clustered |= ~(pair.min(axis=(1, 2)) >= _CLUSTER_TOL * top)
    good = roots.real > 0 if side == "right" else roots.real < 0
    key_real = np.where(good, roots.real, 1e30)
    key_imag = np.where(good, roots.imag, 0.0)
    idx = np.lexsort((key_imag, key_real), axis=-1)
    mus = np.take_along_axis(roots, idx, axis=1)[:, :expect]      # (n, expect)
    Cm = _char_matrices(Ds, zs, mus)
    phis = _kernel_vectors(Cm)                                    # (n, expect, N)
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


def _krein_batch(T, F, zs):
    """Krein matrices Q = (G2 J)(G1 J)^{-1}, (n, dimV, dimV), of the fibers
    F, each at its own spectral point zs, solved from the jets at that
    point; the kernel in `src` takes Q(-i) = Q(i)^dag instead."""
    J, code = _full_jets_batch(T, F, zs)
    if np.any(code):
        raise ContractViolation("deficiency basis failed at k=%s"
                                % F.ks[code != 0])
    G1, G2 = T.traces(F.ks)
    X, Y = G1 @ J, G2 @ J
    return np.linalg.solve(X.transpose(0, 2, 1),
                           Y.transpose(0, 2, 1)).transpose(0, 2, 1)


def _level_phases(bc, T, F):
    """The level unitary's eigenphases over the fibers F:
    phases(rows, lams) -> (eigenphases (n, dimV), ascending, code (n,)),
    from stacked `@` products and inverses, V = U_bc^dag U_E with
    U_bc = (B^dag - iA^dag)(B^dag + iA^dag)^{-1} formed once per column
    and U_E = (X - iY)(X + iY)^{-1}, X = G1 J and Y = G2 J, and LAPACK's
    eigenvalues.  Every row's basis must be good."""
    A, B = _ab_on(bc, T, F.ks)
    G1, G2 = T.traces(F.ks)
    Ah, Bh = A.conj().transpose(0, 2, 1), B.conj().transpose(0, 2, 1)
    U_bc = (Bh - 1j * Ah) @ np.linalg.inv(Bh + 1j * Ah)

    def phases(rows, lams):
        J, code = _full_jets_batch(T, F[rows],
                                   np.asarray(lams, dtype=complex))
        X, Y = G1[rows] @ J, G2[rows] @ J
        U_E = (X - 1j * Y) @ np.linalg.inv(X + 1j * Y)
        V = U_bc[rows].conj().transpose(0, 2, 1) @ U_E
        return np.sort(np.angle(np.linalg.eigvals(V)), axis=1), code
    return phases
