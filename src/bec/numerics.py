"""Small dense complex linear algebra, adaptive 2D quadrature over the full
plane, and phase unwinding.

Matrices are plain complex numpy arrays validated by the helpers below
(finite entries, side length at most 64).
"""

import heapq
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
# adaptive 2D quadrature over the plane

QuadResult = namedtuple("QuadResult", "value error converged cells")

_GL_NODES, _GL_WEIGHTS = leggauss(8)
_GL4_NODES, _GL4_WEIGHTS = leggauss(4)
_EPS = np.finfo(float).eps


def _cell_rule(a1, b1, a2, b2, nodes, weights):
    """Product Gauss-Legendre rule on the s-space cell [a1,b1]x[a2,b2]:
    the momenta of its nodes and the function that sums integrand values
    at those nodes into the cell's value of the compactified integral."""
    m1, h1 = (a1 + b1) / 2.0, (b1 - a1) / 2.0
    m2, h2 = (a2 + b2) / 2.0, (b2 - a2) / 2.0
    s1 = m1 + h1 * nodes
    s2 = m2 + h2 * nodes
    n = nodes.size
    # tangent compactification of the plane onto the open unit square;
    # node (i, j) of the product rule sits at (s1[i], s2[j])
    K1 = np.repeat(np.tan(np.pi * s1 / 2.0), n)
    K2 = np.tile(np.tan(np.pi * s2 / 2.0), n)
    jac = (np.pi / 2.0) ** 2 / (np.cos(np.pi * s1 / 2.0)[:, None] ** 2
                                * np.cos(np.pi * s2 / 2.0)[None, :] ** 2)
    W = np.outer(weights, weights)

    def cell_sum(vals):
        return complex(np.sum(vals.reshape(n, n) * jac * W) * h1 * h2)

    return K1, K2, cell_sum


_RULES = ((_GL_NODES, _GL_WEIGHTS), (_GL4_NODES, _GL4_WEIGHTS))


def _make_cells(f, boxes):
    """Cells (a1, b1, a2, b2, v8, |v8 - v4|) of the s-space boxes, with both
    rules on every box taken from one call of the integrand."""
    rules = [_cell_rule(*box, nodes, weights)
             for box in boxes for nodes, weights in _RULES]
    vals = f(np.concatenate([K1 for K1, _, _ in rules]),
             np.concatenate([K2 for _, K2, _ in rules]))
    sums, at = [], 0
    for K1, _, cell_sum in rules:
        sums.append(cell_sum(vals[at:at + K1.size]))
        at += K1.size
    return [box + (v8, abs(v8 - v4))
            for box, v8, v4 in zip(boxes, sums[0::2], sums[1::2])]


def quad_2d(f, tol=1e-6, max_cells=6000):
    """Integrate f over the whole (k1,k2) plane.

    The plane is mapped to the open square s in (-1,1)^2 through
    k_i = tan(pi s_i / 2) and the transformed integrand is handled by an
    adaptive product Gauss-Legendre rule (order 8, embedded order 4 for the
    local error estimate, worst-cell-first refinement).

    f must be array-valued: f(k1, k2) takes two 1D float arrays of momenta
    and returns an array of the same length.  It is called once for the
    initial 2x2 split and once per refinement, with the nodes of both rules
    on all four new cells, so L final cells cost 1 + (L - 4)/3 calls.

    Returns QuadResult(value, error, converged, cells).  Summation over the
    final cells happens in a fixed sorted order so the result is independent
    of the refinement schedule.
    """
    order = itertools.count()
    heap = []

    def push_split(a1, b1, a2, b2):
        m1, m2 = (a1 + b1) / 2.0, (a2 + b2) / 2.0
        boxes = [(x1, y1, x2, y2) for (x1, y1) in ((a1, m1), (m1, b1))
                 for (x2, y2) in ((a2, m2), (m2, b2))]
        cells = _make_cells(f, boxes)
        for c in cells:
            heapq.heappush(heap, (-c[5], next(order), c))
        return sum(c[5] for c in cells)

    # start from a 2x2 split so symmetric integrands do not fool the estimate
    running = peak = push_split(-1.0, 1.0, -1.0, 1.0)
    while True:
        # the running error total differs from the heap sum by rounding
        # only, by less than 4 eps L T for L cells and a largest total T;
        # within twice that of tol the heap sum, in heap order, decides the
        # stop, so the cells are those of summing the heap on every step
        if (running <= tol + 8.0 * _EPS * len(heap) * peak
                and sum(-e for e, _, _ in heap) <= tol):
            converged = True
            break
        if len(heap) + 3 > max_cells:
            converged = False
            break
        _, _, worst = heapq.heappop(heap)
        running += push_split(*worst[:4]) - worst[5]
        peak = max(peak, running)

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
