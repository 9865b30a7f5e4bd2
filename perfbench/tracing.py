"""Traced run support: spans around the benchmark's own calls, counting
wrappers on bec's public names at module boundaries, and layer probes at
fixed inputs.

The wrappers exist only inside `counting(...)` and are removed when it
exits; untraced runs never install them.
"""

import importlib
import statistics
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np


class NullTracer:
    """Tracer of untraced runs: spans record nothing."""

    @contextmanager
    def span(self, name):
        yield None


class Tracer:
    """Spans kept in memory: name, parent index, start, end, and the change
    of every counter between start and end."""

    def __init__(self):
        self.counts = Counter()
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        rec = {"name": name, "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter()}
        before = Counter(self.counts)
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()
            rec["counts"] = dict(self.counts - before)


def _wrappers(bec, counts):
    """(owner, attribute, wrapper) for every counted public name."""
    models = importlib.import_module("bec.models")
    symbol = importlib.import_module("bec.symbol")
    edge = importlib.import_module("bec.edge")
    fiberize = models.fiberize
    ab_at = bec.BoundaryCondition.ab_at
    eval_batch = bec.Symbol.eval_batch
    quad_2d = symbol.quad_2d
    unwind_phase = edge.unwind_phase

    def fiberize_counted(S, k):
        counts["fiberize"] += 1
        return fiberize(S, k)

    def ab_at_counted(self, k):
        # one call per detector batch or multiplicity check
        counts["ab_at"] += 1
        return ab_at(self, k)

    def eval_batch_counted(self, k1, k2):
        out = eval_batch(self, k1, k2)
        counts["eval_points"] += len(out)
        return out

    def quad_2d_counted(f, *args, **kwargs):
        res = quad_2d(f, *args, **kwargs)
        counts["quad_cells"] += res.cells
        return res

    def unwind_phase_counted(samples):
        counts["phase_samples"] += len(samples)
        return unwind_phase(samples)

    return [(models, "fiberize", fiberize_counted),
            (bec.BoundaryCondition, "ab_at", ab_at_counted),
            (bec.Symbol, "eval_batch", eval_batch_counted),
            (symbol, "quad_2d", quad_2d_counted),
            (edge, "unwind_phase", unwind_phase_counted)]


def counted_names(bec):
    """The current objects behind the counted names (to check removal)."""
    return [getattr(owner, attr) for owner, attr, _ in _wrappers(bec, None)]


@contextmanager
def counting(bec, tracer):
    """Install the counting wrappers for the duration of the block."""
    saved = []
    try:
        for owner, attr, wrapper in _wrappers(bec, tracer.counts):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# layer probes at fixed inputs

K_PROBE = 0.7


def _probe_inputs(bec, jobs):
    """Per edge-enabled model: (model, side, condition, numerics), the
    conditions of the reference rows of each table."""
    eps = jobs.REGDIRAC_EPS
    return {
        "laplacian": (bec.build_model("laplacian"), "halfline",
                      ("robin", {"K": 1.0, "ell": 2.0, "M": 1.0}),
                      jobs.LAPLACE_NUMERICS),
        "dirac": (bec.build_model("dirac", m=1.0), "halfline",
                  ("a", {"a": 2.0}), jobs.DIRAC_NUMERICS),
        "regdirac": (bec.build_model("regdirac", m=-1.0, eps=eps),
                     "halfline", ("a", {"a": 2.0}), jobs.REGDIRAC_NUMERICS),
        "interface": (bec.build_model("dirac", m=1.0, m_minus=-1.0),
                      "interface", ("decoupled", {"aplus": 1.0,
                                                  "aminus": 1.0}),
                      jobs.DIRAC_NUMERICS),
    }


def per_call_s(fn, reps, warmup=1):
    """Median wall time of one call over reps calls, after warm-up calls."""
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def probes(bec, jobs):
    """Layer timings at fixed inputs, warm-up excluded: one column scan
    (edge_eigenvalues), vn_unitary_family per momentum at n = 2 and
    n = 2000, the per-point vn_unitary, and model.fiber."""
    out = {}
    for name, (model, side, (family, kw), numerics) in \
            _probe_inputs(bec, jobs).items():
        k_window, _, lam_res = numerics
        T, fam = model.triple(side), model.fiber_family(side)
        bc = model.make_bc(family, **kw)
        F = model.fiber(K_PROBE, side)
        gap = model.declared_gap or bec.find_gap(model.symbol,
                                                 model.gap_around, k_window)
        window = bec.GapWindow(*model.scan_window(K_PROBE, gap))
        out["edge.column_ms." + name] = 1e3 * per_call_s(
            lambda: bec.edge_eigenvalues(bc, T, F, window,
                                         lam_resolution=lam_res), reps=7)
        for n, reps in ((2, 101), (2000, 3)):
            ks = np.linspace(-0.5 * k_window, 0.5 * k_window, n)
            out["edge.unitary_us_per_k.n%d.%s" % (n, name)] = 1e6 / n * \
                per_call_s(lambda: bec.vn_unitary_family(bc, T, fam, ks),
                           reps=reps)
        out["extension.vn_unitary_us." + name] = 1e6 * per_call_s(
            lambda: bec.vn_unitary(bc, T, F), reps=201)
        if name == "dirac":
            out["models.fiber_us"] = 1e6 * per_call_s(
                lambda: model.fiber(K_PROBE), reps=2001)
    return out
