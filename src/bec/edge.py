"""Edge spectrum, dispersion-band tracking, spectral flow, and windings of
von Neumann unitaries.

Edge eigenvalues and spectral flow are both counted with the level unitary

    V(k, E) = U_bc^dag U_E,   U_E = (X - iY)(X + iY)^{-1},

built on the boundary values X = G1 J and Y = G2 J of the decaying
solutions at a real energy E, and on the unitary U_bc of the condition's
own Lagrangian plane (`extension._level_phases`).  E is an edge eigenvalue
at k exactly where V has the eigenvalue 1, with its multiplicity, and the
eigenphases of V turn one way as E grows, since the Krein matrix is a
Nevanlinna function (Behrndt, Hassi and de Snoo, Boundary Value Problems,
Weyl Functions, and Differential Operators, 2020).

Three integers are read off phase curves by one engine: the edge
eigenvalues of a momentum column, from the eigenphases of V along E
(`_columns`); the spectral flow through a level, the Maslov index of
V(k, level) along the compactified momentum line s = (2/pi) atan k (Robbin
and Salamon, Topology 32 (1993); `level_flow`); and the windings, from the
phase of det U along the same line (`winding`).  `_samples` samples the
curves until every step of the phase sum is below pi / p and a bound of its
caller: a radian on a column, whose eigenphases turn one way, and a quarter
radian on the momentum line, where nothing certifies the steps
(`_on_line`).  `_crossings` counts the eigenphases through 0 in each step,
certified by the step's rounding residual, and refines each by batched
Illinois regula falsi.  det U is sampled as det W(-i) / det W(i) of the
condition matrices W(+-i) = A - B Q(+-i) (`extension._unitary_dets`),
without forming U.

Band tracking, a block of grid columns at a time sharing the batches of the
level unitary, serves the dispersion output and `spectral_flow(bands)`, the
cross-check of the count.  Every kernel takes its fibers as one
`symbol.FiberStack`, which carries its own momenta; the deficiency bases,
jets, Krein matrices, unitaries and eigenphases come from the batched
kernel in `extension`.
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
    _END_PHASE,
    _SETTLE,
    _SIDES,
    K_ENDS,
    K_LADDER,
    K_LIMIT,
    _check_codes,
    _end_unitaries,
    _level_phases,
    _side_bases,
    _unitary_dets,
    _wrap,
)
from .numerics import unwind_phase
from .symbol import find_gap

# Overall sign tying the raw phase winding of det U to spectral flow; fixed
# once by the scalar half-plane calibration family (see the winding
# calibration test) and applied to every reported winding.
CALIBRATION_SIGN = -1


# ---------------------------------------------------------------------------
# phase curves: one sampler and one crossing counter


_PHASE_STEP = 1.0        # a column's largest step of the phase sum, rad
# a momentum-line curve's, rad.  A column's eigenphases turn one way, which
# certifies each step; a line curve's may turn either way, so a step that
# reads d could hide a turn of d -+ 2 pi.  A quarter radian, far below
# pi / p, makes refinement meet a fast turn before it can alias.
_LINE_STEP = 0.25
_COUNT_TOL = 1e-6        # largest rounding residual of a step's count
_ILLINOIS_ITERS = 100    # regula falsi steps at most per root


def _samples(fun, owner, x, cap, where, bound):
    """Samples of phase curves from the seeds (owner (n,), x (n,)), ordered
    by curve and x: curve owner[i] at x[i] has the eigenphases fun(owner,
    x) -> (eigenphases (p, n), ok (n,)), ok False where they fail; one call
    per round over all pending points.  Midpoints are added until every
    step of the phase sum between neighbouring good samples of a curve is
    below bound (rad) and pi / p, each step split between every two samples
    it holds, good or failed, so no point is evaluated twice.  Failing
    samples are left out.  A curve that needs more than cap evaluated
    samples, or a step with no floating-point midpoint, raises
    InsufficientResolutionError naming where(curve, x).

    Returns the good samples (curve (m,), x (m,), eigenphases (p, m)),
    ordered by curve and x, with the steps of the phase sum (m - 1,) and
    whether each step joins two samples of one curve.
    """
    used, rounds = np.zeros(owner.max() + 1, dtype=int), []
    while True:
        used += np.bincount(owner, minlength=len(used))
        if np.any(used > cap):
            c = np.argmax(used > cap)
            raise InsufficientResolutionError(
                "%s needs more than %d phase samples"
                % (where(c, x[np.argmax(owner == c)]), cap))
        th, good = fun(owner, x)
        rounds.append((owner, x, good, th))
        curve, at, ok, theta = (np.concatenate(a, axis=-1)
                                for a in zip(*rounds))
        if len(rounds) > 1:
            order = np.lexsort((at, curve))
            curve, at, ok, theta = (a[..., order]
                                    for a in (curve, at, ok, theta))
        g = np.nonzero(ok)[0]
        good_curve, good_theta = curve[g], theta[:, g]
        inner = good_curve[1:] == good_curve[:-1]
        steps = _wrap(np.diff(good_theta.sum(axis=0)))
        bad = np.nonzero(inner & (np.abs(steps)
                                  > min(bound, np.pi / len(th))))[0]
        if len(bad) == 0:
            return good_curve, at[g], good_theta, steps, inner
        # the gaps between the samples, good or failed, of each step to refine
        first, span = g[bad], g[bad + 1] - g[bad]
        gaps = np.repeat(first - np.cumsum(span) + span, span) \
            + np.arange(span.sum())
        owner, x = curve[gaps], 0.5 * (at[gaps] + at[gaps + 1])
        flat = (x == at[gaps]) | (x == at[gaps + 1])
        if np.any(flat):
            i = np.argmax(flat)
            raise InsufficientResolutionError(
                "%s needs a phase step below floating-point resolution"
                % where(owner[i], x[i]))


def _illinois(f, owner, x0, f0, x1, f1, tol):
    """Roots of the continuous functions f(i, x) -> values, one per bracket
    i, bracketed by [x0, x1] with f0 = f(x0) and f1 = f(x1) of opposite
    signs: batched Illinois regula falsi (Dowell and Jarratt, BIT 11 (1971)),
    one call of f per step over the running brackets.  owner gives each
    bracket's curve and tol each curve's width tolerance: a bracket stops
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
    raise NumericalFailure("eigenphase root refinement did not converge "
                           "in %d steps" % _ILLINOIS_ITERS)


def _cut_frame(theta):
    """A cut gamma (n,) for each sample of the eigenphases theta (p, n):
    the middle of the largest gap between them on the circle.  Within a
    step of the phase sum below pi / p no eigenphase passes it, as they turn
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


def _crossings(fun, curve, x, theta, steps, inner, tol, where):
    """The eigenphases that pass 0 between the samples of phase curves
    (`_samples` with the phase function fun).

    A step from a to b passes c = (d sum theta - sum [theta_b]
    + sum [theta_a]) / 2 pi eigenphases through 0, with [.] in [0, 2 pi),
    or NumericalFailure if c is not an integer to _COUNT_TOL.  They are the
    eigenphases whose value changes sign in a frame cut where none of them
    passes (`_cut_frame`), so a phase on 0 up to rounding at a sample passes
    in the step that c gives it; NumericalFailure if they are not |c|.
    `_illinois` refines all of them together, each to the width tolerance
    tol of its curve.

    Returns the counts c (m - 1,), unrounded and 0 between curves, and for
    each passing eigenphase, ordered by step and then by frame value, its
    step, its root and its |frame value| there.
    """
    count = np.where(inner, (steps - np.diff(np.mod(theta, 2.0 * np.pi)
                                             .sum(axis=0))) / (2.0 * np.pi),
                     0.0)
    off = np.abs(count - np.round(count))
    if np.any(off > _COUNT_TOL):
        i = np.argmax(off)
        raise NumericalFailure("%s is not an integer (residual %.1e)"
                               % (where(curve[i], x[i]), off[i]))
    s = np.nonzero(np.round(count))[0]
    gamma = _cut_frame(theta[:, s])
    fa, fb = _in_frame(theta[:, s], gamma), _in_frame(theta[:, s + 1], gamma)
    passing = np.sign(fa) != np.sign(fb)
    wrong = passing.sum(axis=0) != np.abs(np.round(count[s]))
    if np.any(wrong):
        i = s[np.argmax(wrong)]
        raise NumericalFailure("%s does not match its eigenphases"
                               % where(curve[i], x[i]))
    b, j = np.nonzero(passing.T)
    step, gamma = s[b], gamma[b]

    def f(i, at):
        th, _ = fun(curve[step[i]], at)
        return _in_frame(th, gamma[i])[j[i], np.arange(len(i))]

    roots, resid = _illinois(f, curve[step], x[step], fa[j, b], x[step + 1],
                             fb[j, b], tol)
    return count, step, roots, resid


# seeds of the phase curves on the compactified momentum line, and the most
# samples such a curve may take
_PHASE_SEEDS = 65
_PHASE_MAX_POINTS = 60000


def _on_line(fun, what):
    """The phase curve fun(ks) -> eigenphases (p, n) on the compactified
    momentum line s = (2/pi) atan k, |k| <= K_LIMIT, sampled by `_samples`
    from _PHASE_SEEDS uniform seeds in s, refined until every step is below
    _LINE_STEP.  Returns its phase function in s, where (naming a point's
    momentum for what) and the samples."""
    def in_s(_, s):
        return fun(np.tan(0.5 * np.pi * s)), np.ones(len(s), dtype=bool)

    def where(_, s):
        return "%s near k=%g" % (what, np.tan(0.5 * np.pi * s))

    s_lim = (2.0 / np.pi) * np.arctan(K_LIMIT)
    s = np.linspace(-s_lim, s_lim, _PHASE_SEEDS)
    return in_s, where, _samples(in_s, np.zeros(len(s), dtype=int), s,
                                 _PHASE_MAX_POINTS, where, _LINE_STEP)


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


def _batched(fun, rows, lams):
    """fun(rows, lams) -> (phases (p, n), code (n,)) over _SCAN_ROWS-row
    batches, joined."""
    parts = [fun(rows[s:s + _SCAN_ROWS], lams[s:s + _SCAN_ROWS])
             for s in range(0, len(rows), _SCAN_ROWS)]
    return (np.concatenate([th for th, _ in parts], axis=1),
            np.concatenate([code for _, code in parts]))


def _columns(bc, T, F, windows, nl, xtol=None):
    """Edge eigenvalues of the fibers F (a FiberStack), each within its own
    window [lo, hi]: one list of (lam, |eigenphase| there), ascending, per
    momentum.

    Each column is the phase curve of V(k, E) in E, seeded with _SEEDS over
    its window, sampled by `_samples` with at most nl evaluated samples and
    steps below _PHASE_STEP, and counted by `_crossings` to its own width
    tolerance (xtol, by default 1e-9 of the window's magnitude), so a column
    gives the same result alone or in a batch.  The eigenphases of V turn
    one way as E grows: a column whose steps turn both ways raises
    NumericalFailure, and monotonicity certifies that no turn was missed.
    Roots of one step within the tolerance are one eigenvalue of their
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

    def fun(owner, lams):
        th, code = _batched(phases, owner, lams)
        return th, code == 0

    def where(c, _):
        return "the edge eigenvalue count at k=%g" % ks[c]

    col, E, theta, steps, inner = _samples(
        fun, np.repeat(np.arange(len(ks)), len(_SEEDS)),
        (lo[:, None] + (hi - lo)[:, None] * _SEEDS).ravel(), nl, where,
        _PHASE_STEP)
    up = np.bincount(col[:-1][inner & (steps > 0.0)], minlength=len(cols))
    down = np.bincount(col[:-1][inner & (steps < 0.0)], minlength=len(cols))
    if np.any(up * down):
        raise NumericalFailure(
            "eigenphases of the level unitary turn both ways at k=%g"
            % ks[np.argmax(up * down)])
    _, step, roots, resid = _crossings(fun, col, E, theta, steps, inner, tol,
                                       where)
    for r, b in enumerate(step):
        c = col[b]
        column = out[cols[c]]
        shared = (r > 0 and step[r - 1] == b
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
        return np.concatenate([np.zeros(0)] + [mus[:, 0] for mus, _, _, code
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
    """Signed count of edge-band crossings through a level.

    crossings: list of (k, sign).  The count of `level_flow` also carries
    its rounding residual, and ends: per side (-, +), the end eigenphase of
    smallest magnitude at K_LIMIT and its shrink factor per decade.
    """

    def __init__(self, value, crossings, resid=None, ends=None):
        self.value = int(value)
        self.crossings = list(crossings)
        self.resid = resid
        self.ends = ends

    def __repr__(self):
        return "FlowResult(%+d, %d crossings)" % (self.value,
                                                  len(self.crossings))


# a crossing slope below this, relative to 1 + |level|, is a tangency
_TANGENCY_TOL = 1e-7


def spectral_flow(bands, level=0.0):
    """Up-crossings minus down-crossings of the tracked bands through the
    level: the cross-check of `level_flow`.

    A band that leaves the k window while still moving toward the level
    raises InsufficientResolutionError, since the count may miss a crossing
    outside the window.  Tangencies and flat bands at the level are not
    counted.  A band's 'touches-bulk' ends count as samples of it: the band
    is born or dies there, and a crossing between such an end and a grid
    sample that sits on the level up to rounding then counts whatever the
    sign of that rounding."""
    crossings = []
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
                continue
            if a * b < 0.0 or (b == 0.0 and i + 1 == len(lam) - 1):
                dk = ks[i + 1] - ks[i]
                slope = (b - a) / dk if dk != 0.0 else 0.0
                k_star = ks[i] - a / slope if slope != 0.0 else ks[i]
                if abs(slope) < _TANGENCY_TOL * scale:
                    continue
                crossings.append((float(k_star), int(np.sign(slope))))
            elif b == 0.0 and i + 2 < len(lam):
                c = lam[i + 2]
                if a * c < 0.0:
                    dk = ks[i + 2] - ks[i]
                    slope = (c - a) / dk if dk != 0.0 else 0.0
                    if abs(slope) < _TANGENCY_TOL * scale:
                        continue
                    crossings.append((float(ks[i + 1]),
                                      int(np.sign(slope))))
    crossings.sort()
    value = sum(s for _, s in crossings)
    return FlowResult(value, crossings)


# ---------------------------------------------------------------------------
# windings of von Neumann unitaries


def _check_unimodular(dets):
    if not np.all(np.isfinite(dets)):
        raise ContractViolation("det U has non-finite samples")
    dev = np.max(np.abs(np.abs(dets) - 1.0))
    if dev >= 1e-6:
        raise ContractViolation("det U leaves the unit circle by %.2e" % dev)


def _closure_deviation(bc, T, fiber_family, bc_ref=None):
    """How far the loop of `winding` is from closing through infinity, on
    the stage's rows at -+K_LIMIT: ||U(-K_LIMIT) - U(K_LIMIT)||_2, or with
    bc_ref the larger affiliation evidence ||U U_ref^{-1} - 1||_2 there."""
    U = _end_unitaries(bc, T, fiber_family, bc_ref)
    minus, plus = K_ENDS.index(-K_LIMIT), K_ENDS.index(K_LIMIT)
    if bc_ref is None:
        return np.linalg.norm(U[minus] - U[plus], 2)
    dev = np.linalg.norm(U - np.eye(T.dimV), 2, axis=(1, 2))
    return max(dev[minus], dev[plus])


def winding(bc, T, fiber_family, k_window=20.0, bc_ref=None):
    """Calibrated winding number of det U over the momentum line.

    theta = arg det U is a one-phase curve of `_on_line`, each round of its
    sampling one `extension._unitary_dets` batch checked by
    `_check_unimodular`, and the winding unwinds it on its closed loop.
    With bc_ref the relative unitary U U_ref^{-1} is used.  The loop closes
    through |k| = infinity, so a `_closure_deviation` above _SETTLE leaves
    the winding undefined and raises NotComparableError; the large-momentum
    stage checks both conditions, and InadmissibleConditionError names the
    first failure on its momenta.  Returns (integer, rounding residual).
    k_window is unused; perfbench/jobs.py passes it until ROADMAP item 2."""
    gap_dev = _closure_deviation(bc, T, fiber_family, bc_ref)
    if gap_dev > _SETTLE:
        raise NotComparableError(
            "unitary does not settle to a common large-momentum limit "
            "(deviation %.3f)" % gap_dev)

    def phase(ks):
        dets = _unitary_dets(bc, T, fiber_family, ks, bc_ref=bc_ref)
        _check_unimodular(dets)
        return np.angle(dets)[None, :]

    _, _, (_, _, theta, _, _) = _on_line(phase, "det U")
    raw = unwind_phase(np.exp(1j * np.append(theta[0], theta[0, 0])))
    cal = CALIBRATION_SIGN * raw
    value = int(np.round(cal))
    resid = float(abs(cal - value))
    if resid >= 0.05:
        raise NumericalFailure(
            "winding %.4f is not close to an integer" % cal)
    return value, resid


def relative_winding(bc1, bc2, T, fiber_family, k_window=20.0):
    """Calibrated winding of the relative unitary U1 U2^{-1}; with the
    shipped calibration this equals SF(bc1) - SF(bc2) for affiliated pairs;
    k_window is unused, as in `winding`."""
    return winding(bc1, T, fiber_family, bc_ref=bc2)


# ---------------------------------------------------------------------------
# spectral flow as the Maslov index of the level unitary


def _phases_at(bc, T, fiber_family, ks, level):
    """Eigenphases (dimV, n) of the level unitary V(k, level) at the momenta
    ks; a failing basis raises its typed error, naming the momenta."""
    ks = np.asarray(ks, dtype=float)
    phases = _level_phases(bc, T, fiber_family.stacks(ks))
    th, code = _batched(phases, np.arange(len(ks)),
                        np.full(len(ks), float(level)))
    _check_codes(code, ks)
    return th


def _end_margins(bc, T, fiber_family, level):
    """Certify the ends of the count on the stage's momenta K_ENDS: at
    -+K_LIMIT every eigenphase of V within _END_PHASE of 0 must keep its
    sign, shrink along K_LADDER and not be 0; otherwise NumericalFailure,
    since a band that tends to the level as |k| -> infinity (a
    boundary-induced band) would make the count depend on the end.  V is
    algebraic in k, so its phases have finitely many zeros, and the ladder
    pins the leading term.

    The eigenphases are matched across the ladder by rank, ascending in
    (-pi, pi].  Returns per side (-, +) the end eigenphase of smallest
    magnitude and its shrink factor per decade along the ladder."""
    decades = np.log10(K_LADDER[-1] / K_LADDER[0])
    th = _phases_at(bc, T, fiber_family, K_ENDS, level)
    out = []
    for side in ("-", "+"):
        runs = np.sort(th[:, _SIDES[side]], axis=0)
        margins = []
        for run in runs:
            phi = run[-1]
            if abs(phi) < _END_PHASE and not (
                    phi != 0.0 and np.all(np.sign(run) == np.sign(phi))
                    and np.all(np.diff(np.abs(run)) < 0.0)):
                raise NumericalFailure(
                    "an eigenphase of the level unitary tends to 0 as "
                    "k -> %sinf (%s on |k| = %s): a band may approach the "
                    "level %g" % (side, ", ".join("%.3g" % v for v in run),
                                  ", ".join("%g" % k for k in K_LADDER),
                                  level))
            shrink = (abs(run[0]) / abs(phi)) ** (1.0 / decades)
            margins.append((float(phi), float(shrink)))
        out.append(min(margins, key=lambda m: abs(m[0])))
    return out


def level_flow(bc, T, fiber_family, level=0.0):
    """Spectral flow of the edge bands of bc through the level: the Maslov
    index of the level unitary V(k, level) along the momentum line, the sum
    of the step counts c of `_crossings` on the phase curve of the
    eigenphases theta_j of V (`_on_line`).  With [.] in [0, 2 pi) the
    [theta] terms of neighbouring steps cancel, and the sum telescopes to
    the winding of det V = exp(i sum theta) plus an end term:

        sum c = unwind_phase(det V) + (sum [theta_j(-K_LIMIT)]
                                       - sum [theta_j(+K_LIMIT)]) / 2 pi.

    `_end_margins` certifies the end eigenphases, and any failing basis
    sample raises its typed error.  The count covers the whole line, so no
    momentum window enters it.  Each eigenphase that passes 0 is refined in
    s = (2/pi) atan k and gives one crossing of the sign of its step's
    count.  Returns a FlowResult with the
    crossings, the rounding residual of the sum and the end margins."""
    ends = _end_margins(bc, T, fiber_family, level)
    fun, where, (curve, s, theta, steps, inner) = _on_line(
        lambda ks: _phases_at(bc, T, fiber_family, ks, level),
        "the spectral flow count")
    # as `_columns`: 1e-9 of the magnitude of the window of s
    tol = np.array([1e-9 * (1.0 + np.abs(s).max())])
    count, step, roots, _ = _crossings(fun, curve, s, theta, steps, inner,
                                       tol, where)
    value = int(np.round(count).sum())
    crossings = sorted((float(np.tan(0.5 * np.pi * x)), int(np.sign(c)))
                       for x, c in zip(roots, np.round(count[step])))
    return FlowResult(value, crossings, float(abs(count.sum() - value)),
                      ends)


# ---------------------------------------------------------------------------
# export helper


def dispersion_csv(bands):
    """Deterministic CSV text (band_id,k,lambda) for a list of bands."""
    lines = ["band_id,k,lambda"]
    for i, band in enumerate(bands):
        for k, lam in zip(band.ks, band.lams):
            lines.append("%d,%.12g,%.12g" % (i, k, lam))
    return "\n".join(lines) + "\n"
