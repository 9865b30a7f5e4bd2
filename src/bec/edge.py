"""Edge spectrum, dispersion-band tracking, spectral flow, and windings of
von Neumann unitaries.

Edge eigenvalues are counted with the level unitary

    V(k, E) = U_bc^dag U_E,   U_E = (X - iY)(X + iY)^{-1},

built on the boundary values X = G1 J and Y = G2 J of the decaying
solutions at a real energy E, and on the unitary U_bc of the condition's
own Lagrangian plane (`extension._level_phases`).  E is an edge eigenvalue
at k exactly where V has the eigenvalue 1, with its multiplicity, and the
eigenphases of V turn one way as E grows, since the Krein matrix is a
Nevanlinna function (Behrndt, Hassi and de Snoo, Boundary Value Problems,
Weyl Functions, and Differential Operators, 2020).  A momentum column is
sampled on a fixed seed grid of energies, refined until every step of
arg det V is below a radian; each step's eigenphase count through 0 is an
integer, certified by its rounding residual and by the one-way turn of the
whole column, and each eigenphase that passes 0 is refined by batched
Illinois regula falsi.  A band track computes its grid columns a block at
a time into a list that it steps through, passing each column on as a
value: all columns of a block share the fixed-size batches of the level
unitary, and each refinement step is one batch over the running brackets
of all of them.  Windings are computed from the phase of det U along a
compactified momentum line, sampled as a ratio of determinants of the
condition matrices W(+-i) = A - B Q(+-i) (`extension._unitary_dets`),
from one jet batch at z = i and Q(-i) = Q(i)^dag, without forming U.

Every kernel here takes its fibers as one `symbol.FiberStack`, which carries
its own momenta: a band track's columns are the rows of
`FiberFamily.stacks`, and the fiber of `edge_eigenvalues` is the one-row
case.  The deficiency bases, their jets and products, the trace maps, the
Krein matrices, the unitaries and the level unitary's eigenphases come from
the batched kernel in `extension`; this module holds the eigenvalue count,
the bands, the spectral flow and the windings.
"""

import numpy as np

from .errors import (
    ContractViolation,
    InsufficientResolutionError,
    LostBandError,
    NotComparableError,
    NumericalFailure,
)
from .extension import (
    _ab_on,
    _check_admissible,
    _level_phases,
    _side_bases,
    _unitary_dets,
    _wrap,
    vn_unitary_family,
)
from .numerics import unwind_phase
from .symbol import find_gap

# Overall sign tying the raw phase winding of det U to spectral flow; fixed
# once by the scalar half-plane calibration family (see the winding
# calibration test) and applied to every reported winding.
CALIBRATION_SIGN = -1

# momentum magnitude standing in for |k| = infinity on the compactified line
K_LIMIT = 1e4


# ---------------------------------------------------------------------------
# edge eigenvalues per column: the eigenphase count of the level unitary


# (column, energy) rows per level-unitary batch: bounds the batch's memory,
# which grows linearly with its rows
_SCAN_ROWS = 512
# a column's seed energies, as fractions of its window: a uniform sweep plus
# geometric ladders toward both ends, where the eigenphases of a band about
# to merge into the bulk turn fastest
_LADDER = np.geomspace(1e-6, 1e-2, 6)
_SEEDS = np.sort(np.concatenate([np.linspace(0.0, 1.0, 24), _LADDER,
                                 1.0 - _LADDER]))
_PHASE_STEP = 1.0        # largest step of arg det V between samples, rad
_COUNT_TOL = 1e-6        # largest rounding residual of a step's count
_ILLINOIS_ITERS = 100    # regula falsi steps at most per eigenvalue


def _batched(fun, rows, lams):
    """fun(rows, lams) -> (phases (p, n), code (n,)) over _SCAN_ROWS-row
    batches, joined."""
    parts = [fun(rows[s:s + _SCAN_ROWS], lams[s:s + _SCAN_ROWS])
             for s in range(0, len(rows), _SCAN_ROWS)]
    return (np.concatenate([th for th, _ in parts], axis=1),
            np.concatenate([code for _, code in parts]))


def _illinois(f, owner, x0, f0, x1, f1, tol):
    """Roots of the continuous functions f(i, x) -> values, one per bracket
    i, bracketed by [x0, x1] with f0 = f(x0) and f1 = f(x1) of opposite
    signs: batched Illinois regula falsi (Dowell and Jarratt, BIT 11 (1971)),
    one call of f per step over the running brackets.  owner gives each
    bracket's column and tol each column's width tolerance: a bracket stops
    once its ends are within tol, so its result does not depend on the
    other brackets of the batch.  Each new point keeps tol / 4 from both
    ends.  Returns the evaluated point of smallest |f| of every bracket and
    |f| there.
    """
    x0, f0, x1, f1 = (np.array(v, dtype=float) for v in (x0, f0, x1, f1))
    near = np.abs(f0) <= np.abs(f1)
    best, fbest = np.where(near, x0, x1), np.where(near, np.abs(f0),
                                                    np.abs(f1))
    tol = tol[owner]
    side = np.zeros(len(x0), dtype=int)
    for _ in range(_ILLINOIS_ITERS):
        i = np.nonzero((np.abs(x1 - x0) > tol) & (fbest > 0.0))[0]
        if len(i) == 0:
            return best, fbest
        a, fa, b, fb = x0[i], f0[i], x1[i], f1[i]
        x = (a * fb - b * fa) / (fb - fa)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        x = np.clip(x, lo + 0.25 * tol[i], hi - 0.25 * tol[i])
        fx = f(i, x)
        closer = np.abs(fx) < fbest[i]
        best[i] = np.where(closer, x, best[i])
        fbest[i] = np.where(closer, np.abs(fx), fbest[i])
        # x replaces the end whose value has its sign; the other end's value
        # is halved when it is kept a second time in a row
        to_x1 = np.sign(fx) == np.sign(fb)
        x1[i] = np.where(to_x1, x, b)
        f1[i] = np.where(to_x1, fx, np.where(side[i] == 1, 0.5 * fb, fb))
        x0[i] = np.where(to_x1, a, x)
        f0[i] = np.where(to_x1, np.where(side[i] == -1, 0.5 * fa, fa), fx)
        side[i] = np.where(to_x1, -1, 1)
    raise NumericalFailure("edge eigenvalue refinement did not converge "
                           "in %d steps" % _ILLINOIS_ITERS)


def _cut_frame(theta):
    """A cut gamma (n,) for each sample of the eigenphases theta (p, n):
    the middle of the largest gap between them on the circle.  Within a
    step of arg det V below pi / p no eigenphase passes it, as they turn
    one way."""
    t = np.sort(np.mod(theta, 2.0 * np.pi), axis=0)
    gaps = np.diff(np.concatenate([t, t[:1] + 2.0 * np.pi]), axis=0)
    j, n = np.argmax(gaps, axis=0), np.arange(t.shape[1])
    return t[j, n] + 0.5 * gaps[j, n]


def _in_frame(theta, gamma):
    """The eigenphases theta (p, n) as values in (gamma - 2 pi, gamma],
    ascending, minus the value that 0 takes in that range."""
    v = gamma - np.mod(gamma - theta, 2.0 * np.pi)
    return np.sort(v, axis=0) - (gamma - np.mod(gamma, 2.0 * np.pi))


def _level_samples(phases, ks, lo, hi, nl, dimV):
    """Samples of the level unitary's eigenphases (`phases`, from
    `extension._level_phases`) over the windows [lo, hi] of the columns at
    momenta ks: the seed grid _SEEDS of every column, and midpoints added
    until every step of arg det V within a column is below _PHASE_STEP and
    pi / dimV.  Samples where the basis fails are left out.

    Returns (column (n,), energy (n,), eigenphases (dimV, n)), ordered by
    column and energy, with the steps of arg det V (n - 1,) and whether
    each step joins two samples of one column.  A column that needs more
    than nl samples raises InsufficientResolutionError.
    """
    bound = min(_PHASE_STEP, np.pi / dimV)
    owner = np.repeat(np.arange(len(ks)), len(_SEEDS))
    lams = (lo[:, None] + (hi - lo)[:, None] * _SEEDS).ravel()
    col, E, theta = np.zeros(0, dtype=int), np.zeros(0), np.zeros((dimV, 0))
    while len(owner):
        th, code = _batched(phases, owner, lams)
        ok = code == 0
        col = np.concatenate([col, owner[ok]])
        E = np.concatenate([E, lams[ok]])
        theta = np.concatenate([theta, th[:, ok]], axis=1)
        order = np.lexsort((E, col))
        col, E, theta = col[order], E[order], theta[:, order]
        inner = col[1:] == col[:-1]
        steps = _wrap(np.diff(theta.sum(axis=0)))
        bad = np.nonzero(inner & (np.abs(steps) > bound))[0]
        owner, lams = col[bad], 0.5 * (E[bad] + E[bad + 1])
        over = np.bincount(np.concatenate([col, owner]),
                           minlength=len(ks)) > nl
        if np.any(over):
            raise InsufficientResolutionError(
                "the edge eigenvalue count at k=%g needs more than %d "
                "energy samples" % (ks[np.argmax(over)], nl))
    return col, E, theta, steps, inner


def _columns(bc, T, F, windows, nl, xtol=None):
    """Edge eigenvalues of the fibers F (a FiberStack), each within its own
    window [lo, hi]: one list of (lam, |eigenphase| there), ascending, per
    momentum.

    E is an edge eigenvalue at k exactly where the level unitary V(k, E)
    (`extension._level_phases`) has the eigenvalue 1, and the eigenphases
    of V turn one way as E grows (Q is a Nevanlinna function).  The columns
    are sampled together by `_level_samples`, at most nl samples each.  A
    step from a to b passes c = (d arg det V - sum [theta_b]
    + sum [theta_a]) / 2 pi eigenphases through 0, with [.] in [0, 2 pi).
    NumericalFailure is raised if c is not an integer to _COUNT_TOL, or if
    the steps of a column turn both ways: monotonicity certifies that no
    turn was missed.

    In a step with c != 0 the eigenphases, continuous and ascending in a
    frame cut where none of them passes (`_cut_frame`), give the |c| that
    pass 0, and `_illinois` refines each, all columns together, each column
    to its own width tolerance (xtol, by default 1e-9 of the window's
    magnitude), so a column gives the same result alone or in a batch.
    Roots of one step within that tolerance are one eigenvalue of their
    multiplicity, as on a decoupled interface.  Every batch of the level
    unitary has at most _SCAN_ROWS rows.
    """
    out = [[] for _ in windows]
    cols = [i for i, (lo, hi) in enumerate(windows)
            if np.isfinite(lo) and np.isfinite(hi) and hi > lo]
    if not cols:
        return out
    ks = F.ks[cols]
    phases = _level_phases(bc, T, F[cols])
    lo, hi = np.array([windows[i] for i in cols], dtype=float).T
    size = 1.0 + np.maximum(np.abs(lo), np.abs(hi))
    tol = 1e-9 * size if xtol is None else np.full(len(cols), float(xtol))
    col, E, theta, steps, inner = _level_samples(phases, ks, lo, hi, nl,
                                                 T.dimV)

    # count each step; the eigenphases passing 0 become brackets
    up = np.bincount(col[:-1][inner & (steps > 0.0)], minlength=len(cols))
    down = np.bincount(col[:-1][inner & (steps < 0.0)], minlength=len(cols))
    if np.any(up * down):
        raise NumericalFailure(
            "eigenphases of the level unitary turn both ways at k=%g"
            % ks[np.argmax(up * down)])
    count = (steps - np.diff(np.mod(theta, 2.0 * np.pi).sum(axis=0))) \
        / (2.0 * np.pi)
    off = np.where(inner, np.abs(count - np.round(count)), 0.0)
    if np.any(off > _COUNT_TOL):
        raise NumericalFailure(
            "edge eigenvalue count at k=%g is not an integer (residual %.1e)"
            % (ks[col[np.argmax(off)]], off.max()))
    s = np.nonzero(inner & (np.round(count) != 0.0))[0]
    gamma = _cut_frame(theta[:, s])
    fa, fb = _in_frame(theta[:, s], gamma), _in_frame(theta[:, s + 1], gamma)
    passing = (fa >= 0.0) != (fb >= 0.0)
    wrong = passing.sum(axis=0) != np.abs(np.round(count[s]))
    if np.any(wrong):
        raise NumericalFailure(
            "edge eigenvalue count at k=%g does not match its eigenphases"
            % ks[col[s[np.argmax(wrong)]]])
    b, j = np.nonzero(passing.T)
    owner, gamma = col[s[b]], gamma[b]

    def f(i, x):
        th, _ = _batched(phases, owner[i], x)
        return _in_frame(th, gamma[i])[j[i], np.arange(len(i))]

    roots, resid = _illinois(f, owner, E[s[b]], fa[j, b], E[s[b] + 1],
                             fb[j, b], tol)
    for r, c in enumerate(owner):
        column = out[cols[c]]
        shared = (r > 0 and b[r - 1] == b[r]
                  and abs(roots[r] - column[-1][0]) <= tol[c])
        column.append(column[-1] if shared
                      else (float(roots[r]), float(resid[r])))
    for column in out:
        column.sort()
    return out


def edge_eigenvalues(bc, T, F, gap, lam_resolution=400):
    """Edge eigenvalues of the fiber at its momentum inside the given gap
    window, from at most lam_resolution energy samples (`_columns`).  An
    infinite lower bound is clipped to a heuristic depth."""
    lo, hi = gap.lo, gap.hi
    if not np.isfinite(hi):
        hi = gap.lo + 1e3 if np.isfinite(gap.lo) else 1e3
    if not np.isfinite(lo):
        lo = hi - max(100.0, 20.0 * (1.0 + F.k ** 2))
    pad = 1e-12 * (1.0 + abs(lo) + abs(hi))
    return _columns(bc, T, F, [(lo + pad, hi - pad)], lam_resolution)[0]


# ---------------------------------------------------------------------------
# dispersion bands


class BandEndpoint:
    """How a dispersion band terminates: kind, at momentum k and energy lam.

    'exits-k-window', 'exits-gap-low' and 'exits-gap-high' (the band leaves
    the momentum grid, or the floor or ceiling of the scanned window away
    from a continuum edge) end at the band's own last sample on that side;
    'touches-bulk' ends at the located merge into a fiber continuum edge,
    with lam the band's value there.  Births and deaths share this rule.
    """

    def __init__(self, kind, k, lam):
        self.kind = kind
        self.k = float(k)
        self.lam = float(lam)

    def __repr__(self):
        return "BandEndpoint(%s, k=%.6g, lam=%.6g)" % (self.kind, self.k,
                                                       self.lam)


class DispersionBand:
    def __init__(self, ks, lams, resids, gap):
        self.ks = np.asarray(ks, dtype=float)
        self.lams = np.asarray(lams, dtype=float)
        self.resids = np.asarray(resids, dtype=float)
        self.gap = gap
        self.left = None
        self.right = None
        self.flat = False

    def __len__(self):
        return len(self.ks)

    def variation(self):
        return float(np.abs(np.diff(self.lams)).sum()) if len(self.ks) > 1 \
            else 0.0


class _Tracker:
    def __init__(self, bc, T, model, gap, lam_resolution):
        self.bc = bc
        self.T = T
        self.model = model
        self.gap = gap
        self.nl = lam_resolution
        self.fam = model.fiber_family(T.side)

    def window(self, k):
        return self.model.scan_window(k, self.gap)

    def scan(self, ks):
        """The full-window columns at momenta ks, scanned together."""
        return _columns(self.bc, self.T, self.fam.stacks(ks),
                        [self.window(k) for k in ks], self.nl)

    def nearest(self, k, pred, w, xtol=None):
        """The eigenvalue at momentum k nearest to pred within
        (pred - w, pred + w), clipped to the window; None if there is none."""
        lo, hi = self.window(k)
        lo, hi = max(lo, pred - w), min(hi, pred + w)
        if not hi > lo:
            return None
        found = _columns(self.bc, self.T, self.fam.stacks([k]), [(lo, hi)],
                         160, xtol=xtol)[0]
        return min((lam for lam, _ in found), key=lambda lam: abs(lam - pred),
                   default=None)

    def decay_exponents(self, k, lam):
        """All decay exponents mu of the fiber's exponential solutions at a
        real energy inside the gap."""
        bases = _side_bases(self.model.fiber(k, self.T.side), [complex(lam)])
        return np.concatenate([np.zeros(0)] + [mus[0] for mus, _, _, code
                                               in bases if code[0] == 0])


def _predict(band, k):
    if len(band.ks) >= 2 and band.ks[-1] != band.ks[-2]:
        slope = (band.lams[-1] - band.lams[-2]) / (band.ks[-1] - band.ks[-2])
    else:
        slope = 0.0
    return band.lams[-1] + slope * (k - band.ks[-1]), slope


def _append(band, k, lam, resid):
    band.ks = np.append(band.ks, k)
    band.lams = np.append(band.lams, lam)
    band.resids = np.append(band.resids, resid)


def _classify_boundary(tracker, k_edge, lam, width):
    """Endpoint kind for a band whose eigenvalue sits at lam when it
    disappears near momentum k_edge."""
    lo, hi = tracker.window(k_edge)
    gap = tracker.gap
    near = 0.08 * width
    if lam >= hi - near:
        # the ceiling is the fiber continuum edge unless it was clipped to
        # the requested energy window
        if np.isfinite(gap.hi) and abs(hi - gap.hi) <= 1e-9 * (1.0 + abs(hi)):
            return "exits-gap-high"
        return "touches-bulk"
    if lam <= lo + near:
        # finite requested floor, or the heuristic depth used when the gap
        # is unbounded below, both mean the band left the scanned range;
        # a fiber continuum edge below means a bulk merge
        if (not np.isfinite(gap.lo)
                or abs(lo - gap.lo) <= 1e-9 * (1.0 + abs(lo))):
            return "exits-gap-low"
        return "touches-bulk"
    return None


def _bisect_vanishing(tracker, k_have, lam_have, slope, k_miss, width):
    """Momentum at which a band merges into the bulk, between a momentum
    where it exists and one where it does not.

    A coarse existence bisection localizes the merge; the smallest decay
    exponent of the branch, which vanishes linearly at the merge, is then
    fitted in k for a far more precise root than existence tests allow
    (near the merge the eigenvalue hugs the band edge quadratically)."""
    k_in, lam_in, k_out = float(k_have), float(lam_have), float(k_miss)
    coarse = max(1e-4 * (1.0 + abs(k_in)),
                 abs(k_out - k_in) * 2.0 ** -24)
    while abs(k_out - k_in) > coarse:
        mid = 0.5 * (k_in + k_out)
        pred = lam_in + slope * (mid - k_in)
        w = max(0.15 * width, 4.0 * abs(slope * (k_out - k_in)))
        pick = tracker.nearest(mid, pred, w)
        if pick is not None and abs(pick - pred) <= max(w, 1e-6):
            if mid != k_in:
                slope = (pick - lam_in) / (mid - k_in)
            k_in, lam_in = mid, pick
        else:
            k_out = mid
    k_star = 0.5 * (k_in + k_out)
    lam_star = lam_in + slope * (k_star - k_in)

    # refine: sample the vanishing decay exponent at three nearby momenta
    # on the existing side and extrapolate its root
    direction = np.sign(k_in - k_out) or 1.0
    h = max(abs(k_out - k_in), 2e-3 * (1.0 + abs(k_star)))
    samples = []
    lam_ref, k_ref = lam_in, k_in
    for step in (1.0, 2.0, 3.0):
        kq = k_star + direction * h * step
        pred = lam_ref + slope * (kq - k_ref)
        lam_q = tracker.nearest(kq, pred, max(0.15 * width, 4 * h),
                                xtol=1e-13 * (1.0 + abs(pred)))
        if lam_q is None:
            continue
        mus = tracker.decay_exponents(kq, lam_q)
        if len(mus) == 0:
            continue
        samples.append((kq, float(np.min(np.abs(mus)))))
        slope = (lam_q - lam_ref) / (kq - k_ref) if kq != k_ref else slope
        lam_ref, k_ref = lam_q, kq
    if len(samples) >= 2:
        ksq = np.array([s[0] for s in samples])
        msq = np.array([s[1] for s in samples])
        deg = min(len(samples) - 1, 2)
        fit = np.polyfit(ksq - k_star, msq, deg)
        roots = np.roots(fit)
        best = None
        for r in roots:
            if abs(r.imag) < 1e-9 * (1.0 + abs(r)):
                cand = k_star + r.real
                if abs(r.real) <= 4.0 * h and (
                        best is None or abs(cand - k_star) < abs(best - k_star)):
                    best = cand
        if best is not None:
            k_star = float(best)
            lam_star = lam_ref + slope * (k_star - k_ref)

    lo, hi = tracker.window(k_star)
    # a merge happens at the fiber window edge; snap when adjacent
    if abs(lam_star - hi) < 0.1 * width:
        lam_star = hi
    elif abs(lam_star - lo) < 0.1 * width:
        lam_star = lo
    return k_star, lam_star


def _end(tracker, k_have, lam, slope, k_miss, width):
    """Endpoint of a band sampled at (k_have, lam) and absent at k_miss,
    moving with the given slope: births and deaths alike.

    The value predicted at k_miss classifies the end.  A bulk merge is
    located by `_bisect_vanishing`; a band leaving the window through the
    gap ends at its own sample (k_have, lam).  A band that ends mid-gap
    raises LostBandError."""
    kind = _classify_boundary(tracker, k_miss, lam + slope * (k_miss - k_have),
                              width)
    if kind is None:
        raise LostBandError(
            "band lost mid-gap near k in [%.6g, %.6g] at lam=%.6g"
            % (min(k_have, k_miss), max(k_have, k_miss), lam))
    if kind == "touches-bulk":
        return BandEndpoint(kind, *_bisect_vanishing(tracker, k_have, lam,
                                                     slope, k_miss, width))
    return BandEndpoint(kind, k_have, lam)


def track_bands(bc, T, model, k_window, gap=None, k_resolution=801,
                lam_resolution=400):
    """Follow all edge dispersion branches over |k| <= k_window.

    The columns of the k grid do not depend on the tracking decisions, so
    they are computed ahead, a block of consecutive columns at a time, by
    the eigenvalue count of `_columns`: the columns of a block share its
    batches of the level unitary, and each column is refined to its own
    tolerance, so the result equals a column computed alone.
    lam_resolution caps the energy samples of a column.

    Returns a list of DispersionBand.  Steps halve (up to 8 times) whenever a
    branch jumps by more than a fiftieth of the gap width or two branches get
    within 2e-3 gap widths; a halving momentum's column is computed when the
    step halves.  A band that disappears (a death) and one that appears (a
    birth) end by one rule, `_end` (see BandEndpoint); a band that ends
    mid-gap raises LostBandError.
    """
    if not model.edge_enabled:
        raise ContractViolation("%s ships no boundary data" % model.name)
    if gap is None:
        gap = model.declared_gap or find_gap(model.symbol, model.gap_around,
                                             k_window)
    tracker = _Tracker(bc, T, model, gap, lam_resolution)
    ks = np.linspace(-k_window, k_window, int(k_resolution))
    if gap.width() < np.inf:
        width = gap.width()
    else:
        samples = [tracker.window(k) for k in
                   np.linspace(-k_window, k_window, 7)]
        width = float(np.median([hi - lo for lo, hi in samples
                                 if np.isfinite(hi - lo)]) or 1.0)
    tol_jump = width / 50.0
    tol_close = 2e-3 * width

    # the grid's columns are computed a block at a time, not all at once, to
    # bound the samples held at once: nl/4 columns of a few dozen each
    block = max(1, int(lam_resolution) // 4)
    cols = tracker.scan(ks[:block])

    finished = []
    active = []
    for lam, resid in cols[0]:
        b = DispersionBand([ks[0]], [lam], [resid], gap)
        b.left = BandEndpoint("exits-k-window", ks[0], lam)
        active.append(b)

    def advance(k0, k1, col, depth):
        # collapse coinciding eigenvalues (degenerate branches) into
        # (lam, resid, mult) groups so each copy can host its own branch
        uniq = []
        for lam, resid in col:
            if uniq and abs(lam - uniq[-1][0]) <= 1e-12 * (1.0 + abs(lam)):
                uniq[-1][2] += 1
            else:
                uniq.append([lam, resid, 1])
        taken = [0] * len(uniq)
        plan = []
        trouble = []
        for band in active:
            pred, _ = _predict(band, k1)
            order = sorted(range(len(uniq)),
                           key=lambda j: abs(uniq[j][0] - pred))
            best = order[0] if order else None
            if best is None or abs(uniq[best][0] - pred) > tol_jump:
                trouble.append(band)
                continue
            if (len(order) > 1
                    and abs(uniq[order[1]][0] - pred)
                    - abs(uniq[best][0] - pred) < tol_close
                    and depth < 8):
                trouble.append(band)
                continue
            plan.append((band, best))
        contested = {}
        for band, j in plan:
            contested.setdefault(j, []).append(band)
        clean = all(len(v) <= uniq[j][2] for j, v in contested.items())
        if (trouble or not clean) and depth < 8:
            mid = 0.5 * (k0 + k1)
            if mid != k0 and mid != k1:
                advance(k0, mid, tracker.scan([mid])[0], depth + 1)
                advance(mid, k1, col, depth + 1)
                return
        if not clean:
            # deepest level: the branches are genuinely close (a crossing);
            # let them share the sample rather than dropping one
            plan = [(band, j) for j, bands_j in contested.items()
                    for band in bands_j]
        for band, j in plan:
            lam, resid, _ = uniq[j]
            _append(band, k1, lam, resid)
            taken[j] += 1
        for band in trouble:
            band.right = _end(tracker, band.ks[-1], band.lams[-1],
                              _predict(band, k1)[1], k1, width)
            finished.append(band)
            active.remove(band)
        for j, (lam, resid, mult) in enumerate(uniq):
            for _ in range(max(0, mult - taken[j])):
                b = DispersionBand([k1], [lam], [resid], gap)
                b.left = _end(tracker, k1, lam, 0.0, k0, width)
                active.append(b)

    for i in range(1, len(ks)):
        if i % block == 0:
            cols = tracker.scan(ks[i:i + block])
        advance(ks[i - 1], ks[i], cols[i % block], 0)

    for band in active:
        band.right = BandEndpoint("exits-k-window", ks[-1], band.lams[-1])
        finished.append(band)

    kept = []
    for band in finished:
        if len(band.ks) < 2:
            continue
        span = band.ks[-1] - band.ks[0]
        band.flat = (band.variation() < 1e-6 * width
                     and span >= 0.1 * (2.0 * k_window))
        kept.append(band)
    kept.sort(key=lambda b: (b.ks[0], b.lams[0]))
    return kept


# ---------------------------------------------------------------------------
# spectral flow


class FlowResult:
    """Signed count of dispersion-branch crossings through a fiducial level.

    crossings: list of (k, sign); flagged marks tangencies or flat bands
    sitting at the level, where the count is unreliable.
    """

    def __init__(self, value, crossings, flagged):
        self.value = int(value)
        self.crossings = list(crossings)
        self.flagged = bool(flagged)

    def __repr__(self):
        tag = " FLAGGED" if self.flagged else ""
        return "FlowResult(%+d, %d crossings%s)" % (self.value,
                                                    len(self.crossings), tag)


# a crossing slope below this, relative to 1 + |level|, is a tangency
_TANGENCY_TOL = 1e-7


def spectral_flow(bands, level=0.0):
    """Up-crossings minus down-crossings of the bands through the level.

    A band that leaves the k window while still moving toward the level
    raises InsufficientResolutionError, since the count may miss a crossing
    outside the window.  A band's 'touches-bulk' ends count as samples of
    it: the band is born or dies there, and a crossing between such an end
    and a grid sample that sits on the level up to rounding then counts
    whatever the sign of that rounding."""
    crossings = []
    flagged = False
    for band in bands:
        ks, lams = band.ks, band.lams
        if band.left is not None and band.left.kind == "touches-bulk":
            ks, lams = np.append(band.left.k, ks), np.append(band.left.lam,
                                                             lams)
        if band.right is not None and band.right.kind == "touches-bulk":
            ks, lams = np.append(ks, band.right.k), np.append(lams,
                                                              band.right.lam)
        lam = lams - level
        scale = 1.0 + abs(level)
        if band.flat and np.max(np.abs(lam)) < 1e-7 * scale:
            flagged = True
            continue
        for end, i, inner in ((band.left, 0, 1), (band.right, -1, -2)):
            # leaving the window still moving toward the level, the band
            # may cross it outside: (level - lam_end)(lam_end - lam_inner) > 0
            if (end is not None and end.kind == "exits-k-window"
                    and len(lam) > 1 and lam[i] * (lam[inner] - lam[i]) > 0.0):
                raise InsufficientResolutionError(
                    "a band leaves the k window at k=%.6g, lam=%.6g still "
                    "moving toward the level %g; widen the k window"
                    % (ks[i], lams[i], level))
        for i in range(len(lam) - 1):
            a, b = lam[i], lam[i + 1]
            if a == 0.0:
                if i == 0:
                    flagged = True
                continue
            if a * b < 0.0 or (b == 0.0 and i + 1 == len(lam) - 1):
                dk = ks[i + 1] - ks[i]
                slope = (b - a) / dk if dk != 0.0 else 0.0
                k_star = ks[i] - a / slope if slope != 0.0 else ks[i]
                if abs(slope) < _TANGENCY_TOL * scale:
                    flagged = True
                    continue
                crossings.append((float(k_star), int(np.sign(slope))))
            elif b == 0.0 and i + 2 < len(lam):
                c = lam[i + 2]
                if a * c < 0.0:
                    dk = ks[i + 2] - ks[i]
                    slope = (c - a) / dk if dk != 0.0 else 0.0
                    if abs(slope) < _TANGENCY_TOL * scale:
                        flagged = True
                        continue
                    crossings.append((float(ks[i + 1]),
                                      int(np.sign(slope))))
                else:
                    flagged = True
    crossings.sort()
    value = sum(s for _, s in crossings)
    return FlowResult(value, crossings, flagged)


# ---------------------------------------------------------------------------
# windings of von Neumann unitaries


# seeds of the phase sampling of det U, and the most samples it may take
_PHASE_SEEDS = 1025
_PHASE_MAX_POINTS = 60000


def _det_curve(detfun, k_window):
    """Adaptively sampled det U over the compactified momentum line.

    detfun maps an array of momenta to complex determinants; sampling in
    s = (2/pi) atan(k) refines until adjacent phase steps are below 1 rad.
    """
    s_lim = (2.0 / np.pi) * np.arctan(K_LIMIT)
    seeds = np.concatenate([
        np.linspace(-s_lim, s_lim, _PHASE_SEEDS),
        (2.0 / np.pi) * np.arctan(np.linspace(-k_window, k_window, 801)),
    ])
    s = np.unique(np.clip(seeds, -s_lim, s_lim))
    vals = detfun(np.tan(0.5 * np.pi * s))
    for _ in range(16):
        steps = np.abs(np.angle(vals[1:] / vals[:-1]))
        bad = np.nonzero(steps > 1.0)[0]
        if len(bad) == 0:
            break
        mids = 0.5 * (s[bad] + s[bad + 1])
        if len(s) + len(mids) > _PHASE_MAX_POINTS:
            raise InsufficientResolutionError(
                "phase sampling exceeded %d points" % _PHASE_MAX_POINTS)
        mvals = detfun(np.tan(0.5 * np.pi * mids))
        s = np.concatenate([s, mids])
        vals = np.concatenate([vals, mvals])
        order = np.argsort(s)
        s = s[order]
        vals = vals[order]
    else:
        raise InsufficientResolutionError("phase refinement did not settle")
    return s, vals


def _check_unimodular(dets):
    if not np.all(np.isfinite(dets)):
        raise ContractViolation("det U has non-finite samples")
    dev = np.max(np.abs(np.abs(dets) - 1.0))
    if dev >= 1e-6:
        raise ContractViolation(
            "det U leaves the unit circle by %.2e" % dev)


def winding(bc, T, fiber_family, k_window=20.0, bc_ref=None):
    """Calibrated winding number of det U over the momentum line.

    With bc_ref the relative unitary U U_ref^{-1} is used.  The loop closes
    through |k| = infinity, so both large-momentum limits must agree (within
    0.05); otherwise the winding is not defined and NotComparableError is
    raised.  Both conditions must be admissible at the two ends, or
    InadmissibleConditionError names the first failure.  Returns (integer,
    rounding residual)."""
    p = T.dimV
    k_ends = np.array([-K_LIMIT, K_LIMIT])
    for c in (bc, bc_ref):
        if c is not None:
            _check_admissible(c, k_ends, *_ab_on(c, T, k_ends))
    ends = vn_unitary_family(bc, T, fiber_family, k_ends, bc_ref=bc_ref)
    if bc_ref is not None:
        gap_dev = max(np.linalg.norm(ends[0] - np.eye(p), 2),
                      np.linalg.norm(ends[1] - np.eye(p), 2))
    else:
        gap_dev = np.linalg.norm(ends[0] - ends[1], 2)
    if gap_dev > 0.05:
        raise NotComparableError(
            "unitary does not settle to a common large-momentum limit "
            "(deviation %.3f)" % gap_dev)
    _, vals = _det_curve(
        lambda ks: _unitary_dets(bc, T, fiber_family, ks, bc_ref=bc_ref),
        k_window)
    _check_unimodular(vals)
    loop = np.append(vals, vals[0])
    raw = unwind_phase(loop)
    cal = CALIBRATION_SIGN * raw
    value = int(np.round(cal))
    resid = float(abs(cal - value))
    if resid >= 0.05:
        raise NumericalFailure(
            "winding %.4f is not close to an integer" % cal)
    return value, resid


def relative_winding(bc1, bc2, T, fiber_family, k_window=20.0):
    """Calibrated winding of the relative unitary U1 U2^{-1}; with the
    shipped calibration this equals SF(bc1) - SF(bc2) for affiliated pairs."""
    return winding(bc1, T, fiber_family, k_window=k_window, bc_ref=bc2)


# ---------------------------------------------------------------------------
# export helper


def dispersion_csv(bands):
    """Deterministic CSV text (band_id,k,lambda) for a list of bands."""
    lines = ["band_id,k,lambda"]
    for i, band in enumerate(bands):
        for k, lam in zip(band.ks, band.lams):
            lines.append("%d,%.12g,%.12g" % (i, k, lam))
    return "\n".join(lines) + "\n"
