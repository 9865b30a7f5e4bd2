"""Matrix-polynomial bulk Hamiltonians on the plane.

A Symbol is a finite sum  H(k1, k2) = sum_ab c_ab k1^a k2^b  with Hermitian
matrix coefficients.  This module evaluates symbols, restricts them to
half-plane fibers (k2 -> derivative along y), samples bulk bands, locates
spectral gaps, and computes Chern / relative-Chern pairings of the Fermi
projection by adaptive quadrature.
"""

import warnings

import numpy as np

from .errors import (
    ContractViolation,
    DomainError,
    GaplessPointError,
    NoGapError,
)
from .numerics import as_square, check_hermitian, norm_inf, quad_2d


class Symbol:
    """Matrix polynomial in (k1, k2) with Hermitian coefficients.

    terms: dict mapping (a, b) degree pairs to NxN coefficient matrices.
    Total degree is capped at 4.
    """

    def __init__(self, N, terms):
        self.N = int(N)
        self.terms = {}
        for (a, b), c in terms.items():
            a, b = int(a), int(b)
            if a < 0 or b < 0 or a + b > 4:
                raise ContractViolation(
                    "term degree (%d,%d) outside supported range" % (a, b))
            C = check_hermitian(as_square(c))
            if C.shape != (self.N, self.N):
                raise ContractViolation("coefficient shape %s != N=%d"
                                        % (C.shape, self.N))
            if norm_inf(C) > 0:
                self.terms[(a, b)] = C

    def __call__(self, k1, k2):
        """H(k1, k2) at one momentum; Hermitian for real momenta."""
        return self.eval_batch(k1, k2)[0]

    def eval_batch(self, k1, k2):
        """Evaluate at arrays of momenta; returns a (n, N, N) stack."""
        k1 = np.asarray(k1, dtype=float).ravel()
        k2 = np.asarray(k2, dtype=float).ravel()
        out = np.zeros((k1.size, self.N, self.N), dtype=complex)
        for (a, b), C in self.terms.items():
            out += (k1 ** a * k2 ** b)[:, None, None] * C
        return out

    def derivative(self, axis):
        """Exact partial derivative d/dk1 (axis 0) or d/dk2 (axis 1)."""
        if axis not in (0, 1):
            raise ContractViolation("axis must be 0 or 1, got %r" % (axis,))
        terms = {}
        for (a, b), C in self.terms.items():
            p = (a, b)[axis]
            if p:
                terms[(a - 1, b) if axis == 0 else (a, b - 1)] = p * C
        return Symbol(self.N, terms)

    def fiber_stack(self, ks):
        """Half-plane fiber coefficients at an array of boundary momenta.

        Returns the (n, order+1, N, N) stack of D_j(k) = i^j sum_a c_aj k^a
        (see `fiberize`), polynomial in k.  The order is the symbol's largest
        y-degree at every momentum, also where the top coefficient vanishes.
        """
        ks = np.asarray(ks, dtype=float).ravel()
        order = max((b for (_, b) in self.terms), default=0)
        out = np.zeros((ks.size, order + 1, self.N, self.N), dtype=complex)
        for (a, b), C in self.terms.items():
            out[:, b] += ((1j ** b) * ks ** a)[:, None, None] * C
        return out


class FiberStack:
    """Fiber operators  sum_j D_j(k) d^j/dy^j  at an array of boundary
    momenta ks.

    sides holds one (n, order+1, N, N) stack of coefficients D_j(k) per side
    of the boundary: one on a half plane (y > 0), (y > 0, y < 0) at an
    interface.  The order is the symbol's largest y-degree at every momentum,
    also where the top coefficient vanishes.  The fiber at one momentum is
    the n = 1 case; F[rows] is the stack of the fibers at those rows.
    """

    def __init__(self, ks, sides):
        self.ks = np.asarray(ks, dtype=float).ravel()
        self.sides = tuple(sides)
        if any(len(Ds) != len(self.ks) for Ds in self.sides):
            raise ContractViolation("every side needs one fiber per momentum")

    def __getitem__(self, rows):
        return FiberStack(self.ks[rows], [Ds[rows] for Ds in self.sides])

    @property
    def k(self):
        """The momentum of a single fiber."""
        if len(self.ks) != 1:
            raise ContractViolation("a stack of %d fibers has no single "
                                    "momentum" % len(self.ks))
        return float(self.ks[0])


def fiberize(S, k):
    """Restrict the symbol to the fiber over boundary momentum k, a one-row
    FiberStack.

    The transverse momentum becomes a derivative, k2^j -> (i d/dy)^j, so the
    coefficient of d^j/dy^j is  D_j = i^j sum_a c_aj k^a.  With this choice
    the massive 2x2 model k1 sx + k2 sy + m sz maps onto
    sx k + [[0,1],[-1,0]] d/dy + m sz.
    """
    return FiberStack([k], [S.fiber_stack([k])])


def bulk_bands(S, k, ky_grid):
    """Eigenvalue branches of H(k, ky) over a ky grid.

    Returns an (N, len(grid)) array; row j is the j-th band in ascending
    order at each grid point.
    """
    ky = np.asarray(ky_grid, dtype=float).ravel()
    if ky.size == 0:
        raise ContractViolation("ky_grid must be nonempty")
    if np.any(np.diff(ky) < 0):
        raise ContractViolation("ky_grid must be sorted")
    H = S.eval_batch(np.full(ky.shape, float(k)), ky)
    w = np.linalg.eigvalsh(H)
    return w.T


class GapWindow:
    """Open energy interval (lo, hi) free of bulk spectrum."""

    def __init__(self, lo, hi, provenance="declared"):
        lo, hi = float(lo), float(hi)
        if not lo < hi:
            raise ContractViolation("gap window needs lo < hi")
        self.lo = lo
        self.hi = hi
        self.provenance = provenance

    def __repr__(self):
        return "GapWindow(%g, %g, %s)" % (self.lo, self.hi, self.provenance)

    def width(self):
        return self.hi - self.lo


def find_gap(S, around, k_window, resolution=128):
    """Largest interval around `around` free of sampled band energies over
    the momentum square [-k_window, k_window]^2."""
    if resolution < 64:
        raise ContractViolation("resolution must be >= 64")
    g = np.linspace(-k_window, k_window, int(resolution))
    K1, K2 = np.meshgrid(g, g, indexing="ij")
    w = np.linalg.eigvalsh(S.eval_batch(K1.ravel(), K2.ravel())).ravel()
    below = w[w <= around]
    above = w[w >= around]
    if np.any(np.abs(w - around) < 1e-12):
        raise NoGapError("bulk band passes through %g on the sampling grid"
                         % around)
    lo = float(np.max(below)) if below.size else -np.inf
    hi = float(np.min(above)) if above.size else np.inf
    if hi - lo <= 0:
        raise NoGapError("no gap around %g" % around)
    return GapWindow(lo, hi, provenance="computed")


# ---------------------------------------------------------------------------
# Fermi projection and Chern pairings


def _eigh_gapped(S, K1, K2, level):
    """Eigenvalues and eigenvectors of H at a batch of momenta, refusing any
    momentum where an eigenvalue lies within 1e-8 of `level`."""
    w, V = np.linalg.eigh(S.eval_batch(K1, K2))
    gap_dist = np.min(np.abs(w - level))
    if gap_dist <= 1e-8:
        i = int(np.argmin(np.min(np.abs(w - level), axis=1)))
        raise GaplessPointError(
            "eigenvalue within 1e-8 of level %g at k=(%g, %g)"
            % (level, K1[i], K2[i]))
    return w, V


def _projection_stack(S, K1, K2, level):
    """Spectral projections below `level` at a batch of momenta."""
    w, V = _eigh_gapped(S, K1, K2, level)
    mask = (w < level).astype(float)
    Vm = V * mask[:, None, :]
    return Vm @ V.conj().swapaxes(1, 2)


def _curvature_integrand(S, level):
    """Batched integrand Tr(P [d2 P, d1 P]) / (2 pi i) of the Chern pairing
    of the Fermi projection P below `level`, in Kubo (TKNN) form.

    Each momentum takes one eigendecomposition H = V diag(E) V^dag.  In that
    eigenbasis P = diag(f) with occupations f = [E < level], and the exact
    derivatives of the polynomial symbol give
    (d_j P)_ab = (V^dag d_j H V)_ab (f_b - f_a) / (E_b - E_a),
    so there is no step size.  The returned function maps 1D float arrays
    k1, k2 to an array of integrand values of the same length.
    """
    dS = (S.derivative(0), S.derivative(1))

    def f(k1, k2):
        w, V = _eigh_gapped(S, k1, k2, level)
        occ = (w < level).astype(float)
        df = occ[:, None, :] - occ[:, :, None]
        dE = w[:, None, :] - w[:, :, None]
        # states on the same side of the level do not mix: df = 0 there,
        # and across the level |dE| > 2e-8
        D = np.divide(df, dE, out=np.zeros_like(df), where=df != 0)
        Vh = V.conj().swapaxes(1, 2)
        d1, d2 = (Vh @ d.eval_batch(k1, k2) @ V * D for d in dS)
        tr = (np.einsum("na,nab,nba->n", occ, d2, d1)
              - np.einsum("na,nab,nba->n", occ, d1, d2))
        return tr / (2j * np.pi)

    return f


def chern(S, level, tol=1e-4):
    """Chern pairing of the Fermi projection below `level`.

    Integrates Tr(P [d2 P, d1 P]) / (2 pi i) over the momentum plane, with
    the integrand in Kubo form (`_curvature_integrand`).
    Returns (value, residual) where residual is the distance of the value
    from the nearest integer; a large residual triggers a warning because it
    signals the integrand does not actually pair with an integer class (the
    projection fails to settle at momentum infinity).
    """
    res = quad_2d(_curvature_integrand(S, level), tol=tol)
    if not res.converged:
        warnings.warn("chern quadrature did not reach tol=%g (error %.2e)"
                      % (tol, res.error))
    val = float(res.value.real)
    resid = abs(val - round(val))
    if resid > max(10 * tol, 1e-3):
        warnings.warn(
            "Chern pairing %.6f is not close to an integer (residual %.3f): "
            "the symbol is not strongly affiliated at this level" % (val, resid))
    return val, resid


def relative_chern(S1, S2, level, tol=1e-4):
    """Relative Chern pairing of two symbols that agree at large momentum.

    Integrates the pointwise difference of the two curvature integrands in a
    single quadrature, which converges even when the individual pairings do
    not (the half-integer mass contributions at infinity cancel).
    """
    if S1.N != S2.N:
        raise DomainError("relative pairing needs equal matrix sizes "
                          "(%d vs %d)" % (S1.N, S2.N))
    radius = 1e3
    angles = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    K1, K2 = radius * np.cos(angles), radius * np.sin(angles)
    P1 = _projection_stack(S1, K1, K2, level)
    P2 = _projection_stack(S2, K1, K2, level)
    dev = max(norm_inf(a - b) for a, b in zip(P1, P2))
    if dev > 0.1:
        warnings.warn(
            "projections differ by %.3f at momentum radius %g: the two "
            "symbols are not comparable and the relative pairing may not be "
            "an integer" % (dev, radius))

    f1 = _curvature_integrand(S1, level)
    f2 = _curvature_integrand(S2, level)
    res = quad_2d(lambda x1, x2: f1(x1, x2) - f2(x1, x2), tol=tol)
    if not res.converged:
        warnings.warn("relative chern quadrature did not reach tol=%g "
                      "(error %.2e)" % (tol, res.error))
    val = float(res.value.real)
    return val, abs(val - round(val))
