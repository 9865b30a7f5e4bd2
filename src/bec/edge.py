"""Edge spectrum, dispersion-band tracking, spectral flow, and windings of
von Neumann unitaries.

Edge eigenvalues are located as kernel directions of the detector matrix

    M(k, lam) = A(k) (G1 J) - B(k) (G2 J)

built on the normalized jet matrix J of the decaying exponential solutions at
energy lam; a kernel vector assembles a genuine decaying eigenfunction, so
dips of the smallest singular value signal true edge dispersion points (this
also sees eigenvalues where the raw condition matrix is identically trivial,
e.g. for a reference condition).  A momentum column is scanned on an energy
grid, and each dip of the scan is refined by golden section; the columns of
a band track are handled a block at a time, so one detector batch serves a
refinement step of every column in the block.  Windings are computed from
the phase of det U along a compactified momentum line.

Every kernel here takes its fibers as one `symbol.FiberStack`, which carries
its own momenta: a band track's columns are the rows of
`FiberFamily.stacks`, and the fiber of `edge_eigenvalues` is the one-row
case.  The deficiency bases, their jets, the trace maps, the Krein matrices
and the unitaries come from the batched kernel in `extension`; this module
holds the detector, the bands, the spectral flow and the windings.
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
    _full_jets_batch,
    _side_bases,
    _unitaries,
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
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _detector(bc, T, F):
    """Detector over the fibers F (a FiberStack), one per column.

    Returns det(rows, lams) -> (sv, scale, valid): the singular values
    (n, dimV) of M(k, lam) at the fibers of the columns indexed by rows and
    the energies lams, the scale 1 + max|M|, and whether the basis is good
    (reason code 0); a failing basis never raises here.
    """
    A, B = _ab_on(bc, T, F.ks)
    G1, G2 = T.traces(F.ks)

    def det(rows, lams):
        J, code = _full_jets_batch(T, F[rows],
                                   np.asarray(lams, dtype=complex))
        M = A[rows] @ (G1[rows] @ J) - B[rows] @ (G2[rows] @ J)
        sv = np.linalg.svd(M, compute_uv=False)
        return sv, 1.0 + np.abs(M).max(axis=(1, 2)), code == 0
    return det


def _dips(r):
    """Indices of the local minima of a scan's relative detector values r
    (ties count, infinity beyond both ends) that lie below _DIP_FRACTION."""
    left = np.concatenate([[np.inf], r[:-1]])
    right = np.concatenate([r[1:], [np.inf]])
    return np.nonzero((r < _DIP_FRACTION) & (r <= left) & (r <= right))[0]


def _golden(rel, owner, a, b, tol, iters=80):
    """Golden-section minimization of rel over the brackets [a, b], one
    detector batch per step for all of them.  owner gives each bracket's
    column and tol each column's width tolerance: a column stops once all of
    its brackets are that narrow.  Returns (x, rel(owner, x))."""
    a, b = a.copy(), b.copy()
    for _ in range(iters):
        w = b - a
        wide = np.zeros(len(tol), dtype=bool)
        wide[owner[~(w <= tol[owner])]] = True
        run = wide[owner]
        if not np.any(run):
            break
        x1 = b[run] - _GOLDEN * w[run]
        x2 = a[run] + _GOLDEN * w[run]
        v = rel(np.concatenate([owner[run], owner[run]]),
                np.concatenate([x1, x2]))
        take = v[: len(x1)] < v[len(x1):]
        b[run] = np.where(take, x2, b[run])
        a[run] = np.where(take, a[run], x1)
    x = 0.5 * (a + b)
    return x, rel(owner, x)


def _columns(bc, T, F, windows, nl, xtol=None):
    """Edge eigenvalues of the fibers F (a FiberStack), each within its own
    open window (lo, hi): one list of (lam, relative residual), ascending,
    per momentum.

    Every column is scanned on its own energy grid.  The detector dips of
    all columns are then refined together, so that each golden-section step
    is one detector batch, while each column keeps its own width tolerance
    (xtol, by default 1e-9 of the window's magnitude) and so its own result.
    """
    out = [[] for _ in windows]
    cols = [i for i, (lo, hi) in enumerate(windows)
            if np.isfinite(lo) and np.isfinite(hi) and hi > lo]
    if not cols:
        return out
    det = _detector(bc, T, F[cols])

    def rel(rows, lams):
        sv, scale, valid = det(rows, lams)
        return np.where(valid, sv[:, -1] / scale, np.inf)

    nl = int(nl)
    tol, fine, los, his, owner = [], [], [], [], []
    for c, i in enumerate(cols):
        lo, hi = windows[i]
        size = 1.0 + max(abs(lo), abs(hi))
        tol.append(1e-9 * size if xtol is None else xtol)
        fine.append(1e-13 * size)
        # uniform sweep plus geometric ladders toward both window ends:
        # states about to delocalize sit arbitrarily close to the window
        # edge and their detector dip narrows with the binding energy
        lad = np.geomspace(1e-9, 1.0 / max(nl, 2), 24) * (hi - lo)
        lams = np.unique(np.concatenate([np.linspace(lo, hi, nl),
                                         lo + lad, hi - lad]))
        dips = _dips(rel(np.full(len(lams), c), lams))
        los.append(lams[np.maximum(dips - 1, 0)])
        his.append(lams[np.minimum(dips + 1, len(lams) - 1)])
        owner.append(np.full(len(dips), c))
    owner = np.concatenate(owner)
    if len(owner) == 0:
        return out
    tol, fine = np.array(tol), np.array(fine)
    xs, vmin = _golden(rel, owner, np.concatenate(los), np.concatenate(his),
                       tol)
    # near-window states give very steep dips; candidates that stopped just
    # above the acceptance bar get a second, machine-level refinement
    retry = (vmin >= _ACCEPT_REL) & (vmin < 1e-3)
    if np.any(retry):
        step = 2.0 * tol[owner[retry]]
        xs[retry], vmin[retry] = _golden(rel, owner[retry],
                                         xs[retry] - step, xs[retry] + step,
                                         fine)
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
        small = np.sum(sv < 1e2 * _ACCEPT_REL * scale[:, None], axis=1)
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
    """How a dispersion band terminates: kind is one of 'exits-k-window',
    'exits-gap-low', 'exits-gap-high', 'touches-bulk'."""

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
        self.cols = {}

    def window(self, k):
        return self.model.scan_window(k, self.gap)

    def columns(self, ks):
        """Scan and cache the full-window columns at momenta ks together."""
        ks = [k for k in ks if k not in self.cols]
        found = _columns(self.bc, self.T, self.fam.stacks(ks),
                         [self.window(k) for k in ks], self.nl)
        self.cols.update(zip(ks, found))

    def column(self, k):
        if k not in self.cols:
            self.columns([k])
        return self.cols[k]

    def narrow_column(self, k, lo, hi, nl=160, xtol=None):
        wlo, whi = self.window(k)
        lo, hi = max(lo, wlo), min(hi, whi)
        if not hi > lo:
            return []
        return _columns(self.bc, self.T, self.fam.stacks([k]), [(lo, hi)],
                        nl, xtol=xtol)[0]

    def decay_exponents(self, k, lam):
        """All decay exponents mu of the fiber's exponential solutions at a
        real energy inside the gap."""
        bases = _side_bases(self.fam(k), [complex(lam)])
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
        if not np.isfinite(gap.lo):
            return "exits-gap-low"
        if abs(lo - gap.lo) <= 1e-9 * (1.0 + abs(lo)):
            return "exits-gap-low"
        return "touches-bulk"
    return None


def _nearest_eig(tracker, k, pred, w, xtol=None):
    found = tracker.narrow_column(k, pred - w, pred + w, xtol=xtol)
    pick = None
    for lam, _ in found:
        if pick is None or abs(lam - pred) < abs(pick - pred):
            pick = lam
    return pick


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
        pick = _nearest_eig(tracker, mid, pred, w)
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
        lam_q = _nearest_eig(tracker, kq, pred, max(0.15 * width, 4 * h),
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


def _finalize(tracker, band, k_last, k_gone, width, going_right):
    """Attach the endpoint reached between k_last (band exists) and k_gone
    (band absent)."""
    lam, slope = band.lams[-1], _predict(band, k_gone)[1]
    kind = _classify_boundary(tracker, k_gone, lam + slope * (k_gone - k_last),
                              width)
    if kind is None:
        raise LostBandError(
            "band lost mid-gap near k in [%.6g, %.6g] at lam=%.6g"
            % (min(k_last, k_gone), max(k_last, k_gone), lam))
    if kind == "touches-bulk":
        k_star, lam_star = _bisect_vanishing(tracker, k_last, lam, slope,
                                             k_gone, width)
        ep = BandEndpoint(kind, k_star, lam_star)
    else:
        bound = tracker.gap.lo if kind == "exits-gap-low" else tracker.gap.hi
        k_star = k_last
        if abs(slope) > 1e-30:
            k_star = k_last + (bound - lam) / slope
        ep = BandEndpoint(kind, k_star, bound)
    if going_right:
        band.right = ep
    else:
        band.left = ep


def track_bands(bc, T, model, k_window, gap=None, k_resolution=801,
                lam_resolution=400):
    """Follow all edge dispersion branches over |k| <= k_window.

    The columns of the k grid do not depend on the tracking decisions, so
    they are computed ahead, a block of consecutive columns at a time: every
    column of the block is scanned over its energy window, and the dips of
    all of them are refined in one batched golden-section pass (each column
    to its own tolerance, so the result equals a column computed alone).

    Returns a list of DispersionBand.  Steps halve (up to 8 times) whenever a
    branch jumps by more than a fiftieth of the gap width or two branches get
    within 2e-3 gap widths; the halving momenta and the bulk-merge searches
    compute their columns one at a time.  A branch that still cannot be
    continued and does not terminate at a window or bulk edge raises
    LostBandError.
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
    # and two energies per dip and golden step, a block of nl/4 columns gives
    # batches of about one scan's size (nl energies)
    block = max(1, int(lam_resolution) // 4)
    tracker.columns(ks[:block])

    finished = []
    active = []
    for lam, resid in tracker.column(ks[0]):
        b = DispersionBand([ks[0]], [lam], [resid], gap)
        b.left = BandEndpoint("exits-k-window", ks[0], lam)
        active.append(b)

    def advance(k0, k1, depth):
        col = tracker.column(k1)
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
                advance(k0, mid, depth + 1)
                advance(mid, k1, depth + 1)
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
            _finalize(tracker, band, band.ks[-1], k1, width, True)
            finished.append(band)
            active.remove(band)
        for j, (lam, resid, mult) in enumerate(uniq):
            for _ in range(max(0, mult - taken[j])):
                b = DispersionBand([k1], [lam], [resid], gap)
                kind = _classify_boundary(tracker, k0, lam, width)
                if kind == "touches-bulk":
                    k_star, lam_star = _bisect_vanishing(tracker, k1, lam,
                                                         0.0, k0, width)
                    b.left = BandEndpoint(kind, k_star, lam_star)
                elif kind is not None:
                    b.left = BandEndpoint(kind, k0, lam)
                else:
                    b.left = BandEndpoint("touches-bulk",
                                          0.5 * (k0 + k1), lam)
                active.append(b)

    for i in range(1, len(ks)):
        if i % block == 0:
            tracker.columns(ks[i:i + block])
        advance(ks[i - 1], ks[i], 0)

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


def spectral_flow(bands, level=0.0, tangency_tol=1e-7):
    """Up-crossings minus down-crossings of the bands through the level."""
    crossings = []
    flagged = False
    for band in bands:
        lam = band.lams - level
        scale = 1.0 + abs(level)
        if band.flat and np.max(np.abs(lam)) < 1e-7 * scale:
            flagged = True
            continue
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
                if abs(slope) < tangency_tol * scale:
                    flagged = True
                    continue
                crossings.append((float(k_star), int(np.sign(slope))))
            elif b == 0.0 and i + 2 < len(lam):
                c = lam[i + 2]
                if a * c < 0.0:
                    dk = band.ks[i + 2] - band.ks[i]
                    slope = (c - a) / dk if dk != 0.0 else 0.0
                    if abs(slope) < tangency_tol * scale:
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


def vn_unitary_family(bc, T, fiber_family, ks):
    """Von Neumann unitaries U(k) stacked over an array of momenta, with
    fiber_family a `FiberFamily` (`ModelDescriptor.fiber_family`)."""
    return _unitaries(bc, T, fiber_family, ks)


def _det_curve(detfun, k_window, n_seed=1025, max_points=60000):
    """Adaptively sampled det U over the compactified momentum line.

    detfun maps an array of momenta to complex determinants; sampling in
    s = (2/pi) atan(k) refines until adjacent phase steps are below 1 rad.
    """
    s_lim = (2.0 / np.pi) * np.arctan(K_LIMIT)
    seeds = np.concatenate([
        np.linspace(-s_lim, s_lim, n_seed),
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
        if len(s) + len(mids) > max_points:
            raise InsufficientResolutionError(
                "phase sampling exceeded %d points" % max_points)
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

    def unitaries(ks):
        return _unitaries(bc, T, fiber_family, ks, bc_ref=bc_ref)

    p = T.dimV
    k_ends = np.array([-K_LIMIT, K_LIMIT])
    for c in (bc, bc_ref):
        if c is not None:
            _check_admissible(c, k_ends, *_ab_on(c, T, k_ends))
    ends = unitaries(k_ends)
    if bc_ref is not None:
        gap_dev = max(np.linalg.norm(ends[0] - np.eye(p), 2),
                      np.linalg.norm(ends[1] - np.eye(p), 2))
    else:
        gap_dev = np.linalg.norm(ends[0] - ends[1], 2)
    if gap_dev > 0.05:
        raise NotComparableError(
            "unitary does not settle to a common large-momentum limit "
            "(deviation %.3f)" % gap_dev)
    _, vals = _det_curve(lambda ks: np.linalg.det(unitaries(ks)), k_window)
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
