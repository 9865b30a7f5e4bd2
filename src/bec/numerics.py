"""Small dense complex linear algebra, polynomial roots, adaptive 2D
quadrature over the full plane, and phase unwinding.

Matrices are plain complex numpy arrays validated by the helpers below
(finite entries, side length at most 64).  Polynomials are 1D complex
coefficient arrays indexed by degree.
"""

import heapq
from collections import namedtuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    ContractViolation,
    DomainError,
    InsufficientResolutionError,
    NumericalFailure,
)

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
# eigen / singular value kernels


def herm_eig(M):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvector matrix V with columns the
    eigenvectors, V unitary).  The input must be Hermitian within the tagged
    tolerance.
    """
    A = check_hermitian(M)
    w, V = np.linalg.eigh((A + A.conj().T) / 2.0)
    resid = norm_inf(A @ V - V @ np.diag(w.astype(complex)))
    scale = norm_inf(A)
    if resid >= 1e-10 * max(scale, 1e-300) and resid >= 1e-14:
        raise NumericalFailure("herm_eig residual %.3e too large" % resid, data=A)
    return w, V


def complex_eig(M):
    """Eigenpairs of a general complex matrix as a list of (lam, v)."""
    A = as_square(M)
    try:
        w, V = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("eigen iteration failed: %s" % exc, data=A)
    pairs = []
    scale = norm_inf(A)
    for i in range(A.shape[0]):
        v = V[:, i]
        resid = np.linalg.norm(A @ v - w[i] * v)
        if resid >= 1e-9 * max(scale, 1e-300) * np.linalg.norm(v) and resid > 1e-13:
            raise NumericalFailure(
                "eigenpair residual %.3e too large" % resid, data=A)
        pairs.append((complex(w[i]), v))
    return pairs


def min_singular(M):
    """Smallest singular value of a square matrix."""
    A = as_square(M)
    if A.size == 0:
        return 0.0
    return float(np.linalg.svd(A, compute_uv=False)[-1])


def null_vectors(M, tol):
    """Orthonormal basis of the numerical kernel: right singular vectors whose
    singular value is below tol (absolute)."""
    A = as_matrix(M)
    _, s, Vh = np.linalg.svd(A)
    ns = Vh[s <= tol].conj().T if s.size else Vh.conj().T
    # A wide/tall matrix can have more kernel directions than singular values.
    k = A.shape[1] - len(s)
    if k > 0:
        ns = np.concatenate([ns, Vh[len(s):].conj().T], axis=1) if ns.size else Vh[len(s):].conj().T
    return ns


# ---------------------------------------------------------------------------
# polynomials


def trim_poly(coeffs, rtol=1e-12):
    """Drop trailing coefficients smaller than rtol * max|coeff|."""
    c = np.asarray(coeffs, dtype=complex).ravel()
    if c.size == 0:
        return c
    top = np.max(np.abs(c))
    if top == 0.0:
        return np.zeros(0, dtype=complex)
    keep = np.abs(c) > rtol * top
    last = int(np.max(np.nonzero(keep)[0]))
    return c[: last + 1].copy()


def poly_eval(coeffs, x):
    c = np.asarray(coeffs, dtype=complex)
    out = np.zeros_like(np.asarray(x, dtype=complex))
    for a in c[::-1]:
        out = out * x + a
    return out


def poly_roots(coeffs):
    """Roots of a scalar polynomial (coefficients indexed by degree) via the
    companion matrix of the trimmed polynomial."""
    c = trim_poly(coeffs)
    if c.size == 0:
        raise DomainError("zero polynomial has no well-defined roots")
    if c.size == 1:
        raise DomainError("constant polynomial: degree must be >= 1 after trimming")
    n = c.size - 1
    comp = np.zeros((n, n), dtype=complex)
    comp[1:, :-1] = np.eye(n - 1)
    comp[:, -1] = -c[:-1] / c[-1]
    roots = np.linalg.eigvals(comp)
    maxc = float(np.max(np.abs(c)))
    for r in roots:
        bound = 1e-8 * maxc * (1.0 + abs(r)) ** n
        if abs(poly_eval(c, r)) > bound:
            raise NumericalFailure(
                "polynomial root residual exceeds bound at root %s" % r, data=c)
    return [complex(r) for r in roots]


def poly_from_roots(roots, leading=1.0):
    c = np.array([complex(leading)])
    for r in roots:
        c = np.convolve(c, np.array([-r, 1.0], dtype=complex))
    return c


# ---------------------------------------------------------------------------
# adaptive 2D quadrature over the plane

QuadResult = namedtuple("QuadResult", "value error converged cells")

_GL_NODES, _GL_WEIGHTS = leggauss(8)
_GL4_NODES, _GL4_WEIGHTS = leggauss(4)


def _batched(f):
    """Return a version of f that accepts coordinate arrays, probing whether
    the given integrand already does."""
    t1 = np.array([0.1037, -0.271])
    t2 = np.array([0.0459, 0.356])
    try:
        out = np.asarray(f(t1, t2), dtype=complex)
        if out.shape == t1.shape:
            return f
    except Exception:
        pass

    def wrapped(x1, x2):
        return np.array([f(float(a), float(b)) for a, b in zip(x1, x2)],
                        dtype=complex)

    return wrapped


def _cell_values(fbat, a1, b1, a2, b2, nodes, weights):
    """Product Gauss-Legendre value of the compactified integrand on the
    s-space cell [a1,b1]x[a2,b2]."""
    m1, h1 = (a1 + b1) / 2.0, (b1 - a1) / 2.0
    m2, h2 = (a2 + b2) / 2.0, (b2 - a2) / 2.0
    s1 = m1 + h1 * nodes
    s2 = m2 + h2 * nodes
    S1, S2 = np.meshgrid(s1, s2, indexing="ij")
    # tangent compactification of the plane onto the open unit square
    K1 = np.tan(np.pi * S1 / 2.0)
    K2 = np.tan(np.pi * S2 / 2.0)
    jac = (np.pi / 2.0) ** 2 / (np.cos(np.pi * S1 / 2.0) ** 2
                                * np.cos(np.pi * S2 / 2.0) ** 2)
    vals = fbat(K1.ravel(), K2.ravel()).reshape(K1.shape)
    W = np.outer(weights, weights)
    return complex(np.sum(vals * jac * W) * h1 * h2)


def quad_2d(f, tol=1e-6, max_cells=6000):
    """Integrate f over the whole (k1,k2) plane.

    The plane is mapped to the open square s in (-1,1)^2 through
    k_i = tan(pi s_i / 2) and the transformed integrand is handled by an
    adaptive product Gauss-Legendre rule (order 8, embedded order 4 for the
    local error estimate, worst-cell-first refinement).

    Returns QuadResult(value, error, converged, cells).  Summation over the
    final cells happens in a fixed sorted order so the result is independent
    of the refinement schedule.
    """
    fbat = _batched(f)

    def make_cell(a1, b1, a2, b2):
        v8 = _cell_values(fbat, a1, b1, a2, b2, _GL_NODES, _GL_WEIGHTS)
        v4 = _cell_values(fbat, a1, b1, a2, b2, _GL4_NODES, _GL4_WEIGHTS)
        return (a1, b1, a2, b2, v8, abs(v8 - v4))

    # start from a 2x2 split so symmetric integrands do not fool the estimate
    cells = []
    counter = 0
    heap = []
    for (a1, b1) in ((-1.0, 0.0), (0.0, 1.0)):
        for (a2, b2) in ((-1.0, 0.0), (0.0, 1.0)):
            c = make_cell(a1, b1, a2, b2)
            heapq.heappush(heap, (-c[5], counter, c))
            counter += 1

    while True:
        total_err = sum(-e for e, _, _ in heap)
        if total_err <= tol:
            converged = True
            break
        if len(heap) + 3 > max_cells:
            converged = False
            break
        _, _, worst = heapq.heappop(heap)
        a1, b1, a2, b2, _, _ = worst
        m1, m2 = (a1 + b1) / 2.0, (a2 + b2) / 2.0
        for (x1, y1) in ((a1, m1), (m1, b1)):
            for (x2, y2) in ((a2, m2), (m2, b2)):
                c = make_cell(x1, y1, x2, y2)
                heapq.heappush(heap, (-c[5], counter, c))
                counter += 1

    leaves = sorted((c for _, _, c in heap), key=lambda c: (c[0], c[2]))
    value = complex(sum(c[4] for c in leaves))
    error = float(sum(c[5] for c in leaves))
    return QuadResult(value, error, converged, len(leaves))


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
