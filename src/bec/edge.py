"""Edge spectrum, dispersion-band tracking, spectral flow, and windings of
von Neumann unitaries.

Edge eigenvalues are located as kernel directions of the detector matrix

    M(k, lam) = (A(k) G1 - B(k) G2) J = W(lam) G1 J

built on the normalized jet matrix J of the decaying exponential solutions
at energy lam; a kernel vector assembles a genuine decaying eigenfunction,
so dips of the smallest singular value signal true edge dispersion points
(this also sees eigenvalues where the raw condition matrix is identically
trivial, e.g. for a reference condition, and needs no inverse of G1 J).  M
comes from `extension._jet_products`, the kernel that also gives the Krein
matrices their products G1 J and G2 J: the factor P = A G1 - B G2 and the
fiber coefficients are laid out once per momentum, one (n,) array per entry,
a detector batch gathers its rows of them, and M = P J is summed entry by
entry, one product over the batch's rows per term.  A momentum column is
scanned on an energy grid, and each dip of the scan is refined by Brent
minimization of the squared detector, starting from the dip's grid point.  A
band track scans its grid columns a block at a time into a list that it
steps through, passing each column on as a value: the grids of all columns
of the block are scanned in one pass of fixed-size detector batches, and one
detector batch of one row per dip serves a refinement step of every column
in the block.  Windings are computed from the phase of det U along a
compactified momentum line, sampled as a ratio of determinants of the
condition matrices W(+-i) = A - B Q(+-i) (`extension._unitary_dets`),
from one jet batch at z = i and Q(-i) = Q(i)^dag, without forming U.

Every kernel here takes its fibers as one `symbol.FiberStack`, which carries
its own momenta: a band track's columns are the rows of
`FiberFamily.stacks`, and the fiber of `edge_eigenvalues` is the one-row
case.  The deficiency bases, their jets and products, the trace maps, the
Krein matrices and the unitaries come from the batched kernel in
`extension`; this module holds the detector, the bands, the spectral flow
and the windings.  The detector's singular values come from
`extension._singular_values`, in closed form for dimV <= 2.
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
    _jet_products,
    _side_bases,
    _singular_values,
    _unitary_dets,
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
# detector columns: energy scan, batched dip refinement, multiplicity


_DIP_FRACTION = 0.6      # local minima below this fraction of scale refine
_ACCEPT_REL = 1e-8       # refined minimum below this fraction counts as zero
_CGOLD = (3.0 - np.sqrt(5.0)) / 2.0  # golden-section step fraction
_BRENT_ITERS = 100       # minimization steps at most per refinement
# (column, energy) rows per detector batch of a scan: bounds the batch's
# memory, which grows linearly with its rows
_SCAN_ROWS = 512


def _detector(bc, T, F):
    """Detector over the fibers F (a FiberStack), one per column.

    Returns det(rows, lams) -> (sv, scale, valid): the singular values
    (dimV, n), largest first, of M(k, lam) at the fibers of the columns
    indexed by rows and the energies lams, the scale 1 + max|M| (n,), and
    whether the basis is good (reason code 0); a failing basis never raises
    here.  M comes from `extension._jet_products` on the one factor
    P = A G1 - B G2, rows last; for dimV <= 2 no LAPACK routine runs.
    """
    A, B = _ab_on(bc, T, F.ks)
    G1, G2 = T.traces(F.ks)
    products = _jet_products(T, F, [A @ G1 - B @ G2])

    def det(rows, lams):
        (M,), code = products(rows, lams)
        size = np.abs(M).reshape(len(M) ** 2, len(code)).max(axis=0)
        return _singular_values(M), 1.0 + size, code == 0
    return det


def _dips(r):
    """Indices of the local minima of a scan's relative detector values r
    (ties count, infinity beyond both ends) that lie below _DIP_FRACTION."""
    left = np.concatenate([[np.inf], r[:-1]])
    right = np.concatenate([r[1:], [np.inf]])
    return np.nonzero((r < _DIP_FRACTION) & (r <= left) & (r <= right))[0]


def _brent(rel, owner, a, x, fx, b, tol):
    """Brent minimization of rel**2 over the brackets [a, b], one detector
    batch of one row per running bracket per step.

    Each bracket starts from a point x inside it and the value fx = rel(x)
    already known there, and mixes parabolic steps on rel**2 (rel has a
    V-shaped minimum that a parabola fits badly; its square does not) with
    golden-section fallbacks (Brent 1973, as fminbound in Forsythe, Malcolm
    and Moler 1977, with the absolute tolerance only).  owner gives each
    bracket's column and tol each column's width tolerance: a bracket stops
    once its best point is within 2 tol / 3 of both of its ends, so its
    result does not depend on the other brackets of the batch.  Returns the
    best point of every bracket and the value of rel there.
    """
    a, x, fx, b = (np.array(v, dtype=float) for v in (a, x, fx, b))
    w, fw, v, fv = x.copy(), fx.copy(), x.copy(), fx.copy()
    d, e = np.zeros_like(x), np.zeros_like(x)
    tol1 = tol[owner] / 3.0
    tol2 = 2.0 * tol1
    # rows where the basis fails are inf: a parabola through them is nan and
    # fails its acceptance test, which falls back to a golden step
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for _ in range(_BRENT_ITERS):
            xm = 0.5 * (a + b)
            i = np.nonzero(np.abs(x - xm) > tol2 - 0.5 * (b - a))[0]
            if len(i) == 0:
                break
            ai, bi, xi, xmi, t1, t2 = a[i], b[i], x[i], xm[i], tol1[i], tol2[i]
            wi, vi, ei = w[i], v[i], e[i]
            Fx, Fw, Fv = fx[i] ** 2, fw[i] ** 2, fv[i] ** 2
            r = (xi - wi) * (Fx - Fv)
            q = (xi - vi) * (Fx - Fw)
            p = (xi - vi) * q - (xi - wi) * r
            q = 2.0 * (q - r)
            p = np.where(q > 0.0, -p, p)
            q = np.abs(q)
            parabolic = ((np.abs(ei) > t1) & (np.abs(p) < np.abs(0.5 * q * ei))
                         & (p > q * (ai - xi)) & (p < q * (bi - xi)))
            golden = np.where(xi >= xmi, ai - xi, bi - xi)
            step = np.where(parabolic, p / q, _CGOLD * golden)
            # a parabolic point next to an end moves by tol1 toward the middle
            toward = np.where(xmi >= xi, t1, -t1)
            near = parabolic & ((xi + step - ai < t2) | (bi - xi - step < t2))
            step = np.where(near, toward, step)
            e[i] = np.where(parabolic, d[i], golden)
            d[i] = step
            u = xi + np.where(step >= 0.0, 1.0, -1.0) * np.maximum(
                np.abs(step), t1)
            fu = rel(owner[i], u)
            fxi, fwi, fvi = fx[i], fw[i], fv[i]
            better = fu <= fxi
            left = u < xi
            a[i] = np.where(better, np.where(left, ai, xi),
                            np.where(left, u, ai))
            b[i] = np.where(better, np.where(left, xi, bi),
                            np.where(left, bi, u))
            to_w = better | (fu <= fwi) | (wi == xi)
            to_v = ~to_w & ((fu <= fvi) | (vi == xi) | (vi == wi))
            v[i] = np.where(to_w, wi, np.where(to_v, u, vi))
            fv[i] = np.where(to_w, fwi, np.where(to_v, fu, fvi))
            w[i] = np.where(better, xi, np.where(to_w, u, wi))
            fw[i] = np.where(better, fxi, np.where(to_w, fu, fwi))
            x[i] = np.where(better, u, xi)
            fx[i] = np.where(better, fu, fxi)
    return x, fx


def _columns(bc, T, F, windows, nl, xtol=None):
    """Edge eigenvalues of the fibers F (a FiberStack), each within its own
    open window (lo, hi): one list of (lam, relative residual), ascending,
    per momentum.

    Every column has its own energy grid, and the grids of all columns are
    scanned in one pass, _SCAN_ROWS (column, energy) rows per detector
    batch; a row's value does not depend on its batch, so a batch may split
    a column.  The detector dips of all columns are then refined together by
    `_brent`, from their grid points and scanned values, so that each step
    is one detector batch, while each column keeps its own width tolerance
    (xtol, by default 1e-9 of the window's magnitude) and so its own
    result.
    """
    out = [[] for _ in windows]
    cols = [i for i, (lo, hi) in enumerate(windows)
            if np.isfinite(lo) and np.isfinite(hi) and hi > lo]
    if not cols:
        return out
    det = _detector(bc, T, F[cols])

    def rel(rows, lams):
        sv, scale, valid = det(rows, lams)
        return np.where(valid, sv[-1] / scale, np.inf)

    nl = int(nl)
    lo, hi = np.array([windows[i] for i in cols], dtype=float).T
    size = 1.0 + np.maximum(np.abs(lo), np.abs(hi))
    tol = 1e-9 * size if xtol is None else np.full(len(cols), float(xtol))
    fine = 1e-13 * size
    # uniform sweep plus geometric ladders toward both window ends: states
    # about to delocalize sit arbitrarily close to the window edge and their
    # detector dip narrows with the binding energy
    ladder = np.geomspace(1e-9, 1.0 / max(nl, 2), 24)
    grids = []
    for a, b in zip(lo, hi):
        lad = ladder * (b - a)
        grids.append(np.unique(np.concatenate([np.linspace(a, b, nl),
                                               a + lad, b - lad])))
    lengths = [len(grid) for grid in grids]
    rows = np.repeat(np.arange(len(cols)), lengths)
    lams = np.concatenate(grids)
    vals = np.concatenate([rel(rows[s:s + _SCAN_ROWS], lams[s:s + _SCAN_ROWS])
                           for s in range(0, len(lams), _SCAN_ROWS)])
    los, xs, vmin, his, owner = [], [], [], [], []
    per_column = np.split(vals, np.cumsum(lengths)[:-1])
    for c, (grid, r) in enumerate(zip(grids, per_column)):
        dips = _dips(r)
        los.append(grid[np.maximum(dips - 1, 0)])
        xs.append(grid[dips])
        vmin.append(r[dips])
        his.append(grid[np.minimum(dips + 1, len(grid) - 1)])
        owner.append(np.full(len(dips), c))
    owner = np.concatenate(owner)
    if len(owner) == 0:
        return out
    xs, vmin = _brent(rel, owner, np.concatenate(los), np.concatenate(xs),
                      np.concatenate(vmin), np.concatenate(his), tol)
    # near-window states give very steep dips; candidates that stopped just
    # above the acceptance bar get a second, machine-level refinement
    retry = (vmin >= _ACCEPT_REL) & (vmin < 1e-3)
    if np.any(retry):
        step = 2.0 * tol[owner[retry]]
        xs[retry], vmin[retry] = _brent(rel, owner[retry], xs[retry] - step,
                                        xs[retry], vmin[retry],
                                        xs[retry] + step, fine)
    seen = [[] for _ in cols]
    keep = []
    for j in np.nonzero(vmin < _ACCEPT_REL)[0]:
        x, c = xs[j], owner[j]
        if not any(abs(x - y) <= 1e-7 * (1.0 + abs(x)) for y in seen[c]):
            seen[c].append(x)
            keep.append(j)
    if keep:
        # multiplicity: decoupled interfaces can carry coinciding branches
        # from both sides, seen as several small singular values
        keep = np.array(keep)
        sv, scale, valid = det(owner[keep], xs[keep])
        small = np.sum(sv < 1e2 * _ACCEPT_REL * scale, axis=0)
        mult = np.where(valid, np.maximum(1, small), 1)
        for j, m in zip(keep, mult):
            out[cols[owner[j]]].extend([(float(xs[j]), float(vmin[j]))]
                                       * int(m))
    for col in out:
        col.sort()
    return out


def edge_eigenvalues(bc, T, F, gap, lam_resolution=400):
    """Edge eigenvalues of the fiber at its momentum inside the given gap
    window.  An infinite lower bound is clipped to a heuristic depth."""
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
    they are computed ahead, a block of consecutive columns at a time: the
    energy grids of all columns of the block are scanned in one pass of
    _SCAN_ROWS-row detector batches, and the dips of all of them are refined
    in one batched Brent pass (each column to its own tolerance, so the
    result equals a column computed alone).

    Returns a list of DispersionBand.  Steps halve (up to 8 times) whenever a
    branch jumps by more than a fiftieth of the gap width or two branches get
    within 2e-3 gap widths; a halving momentum's column is scanned when the
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
    # bound the size of a refinement batch: with one to three dips per column
    # and one energy per dip and step, a block of nl/4 columns gives
    # refinement batches of nl/4 to 3 nl/4 rows, below one scan batch
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
    outside the window."""
    crossings = []
    flagged = False
    for band in bands:
        lam = band.lams - level
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
                    % (band.ks[i], band.lams[i], level))
        for i in range(len(lam) - 1):
            a, b = lam[i], lam[i + 1]
            if a == 0.0:
                if i == 0:
                    flagged = True
                continue
            if a * b < 0.0 or (b == 0.0 and i + 1 == len(lam) - 1):
                dk = band.ks[i + 1] - band.ks[i]
                slope = (b - a) / dk if dk != 0.0 else 0.0
                k_star = band.ks[i] - a / slope if slope != 0.0 else band.ks[i]
                if abs(slope) < _TANGENCY_TOL * scale:
                    flagged = True
                    continue
                crossings.append((float(k_star), int(np.sign(slope))))
            elif b == 0.0 and i + 2 < len(lam):
                c = lam[i + 2]
                if a * c < 0.0:
                    dk = band.ks[i + 2] - band.ks[i]
                    slope = (c - a) / dk if dk != 0.0 else 0.0
                    if abs(slope) < _TANGENCY_TOL * scale:
                        flagged = True
                        continue
                    crossings.append((float(band.ks[i + 1]),
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
