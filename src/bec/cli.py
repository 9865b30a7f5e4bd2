"""Command-line front end.

Commands

    bec bulk            Chern pairing of a bulk symbol at a fiducial level
    bec relative-chern  pairing of the difference of two comparable symbols
    bec edge spectrum   track edge dispersion bands; CSV and optional SVG
    bec edge flow       signed crossing count through the fiducial level
    bec winding         (relative) winding of the von Neumann unitary
    bec verify          corrected bulk-edge correspondence check
    bec tables          recompute the three summary tables and diff them

Exit codes: 0 success, 1 verification/table mismatch, 2 bad input or
inadmissible/non-affiliated condition, 3 numerical failure.

`--param key=val` is routed by key: model parameters (m, eps, m_minus, f,
nu) configure the model; boundary parameters (a, aplus, aminus, K, L, M,
ell) configure the `--bc` family; `--ref-param` configures `--bc-ref`.
`--model` may also be a path to a model file, whose values serve as defaults
under the same flags.
"""

import argparse
import os
import sys
import warnings

import numpy as np

from . import modelfile
from .edge import dispersion_csv, relative_winding, spectral_flow, \
    track_bands, winding
from .errors import BecError, DomainError, InsufficientResolutionError, \
    LostBandError, ModelFileError, NoGapError, NumericalFailure
from .extension import affiliation_check
from .models import build_model
from .report import InvariantReport
from .svgplot import spectrum_svg
from .symbol import GapWindow, bulk_bands, chern, find_gap, relative_chern

MODEL_PARAM_KEYS = ("m", "eps", "m_minus", "f", "nu")
BC_PARAM_KEYS = ("a", "aplus", "aminus", "K", "L", "M", "ell")


# ---------------------------------------------------------------------------
# argument plumbing


def _parse_params(pairs, where):
    out = {}
    for group in pairs or ():
        for item in group.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ModelFileError("%s expects key=val, got %r"
                                     % (where, item))
            key, val = item.split("=", 1)
            key = key.strip()
            try:
                out[key] = float(val)
            except ValueError:
                raise ModelFileError("%s: bad numeric value %r for key %r"
                                     % (where, val, key))
    return out


def _split_params(params):
    model_kw, bc_kw = {}, {}
    for key, val in params.items():
        if key in MODEL_PARAM_KEYS:
            model_kw[key] = val
        elif key in BC_PARAM_KEYS:
            bc_kw[key] = val
        else:
            raise ModelFileError(
                "unknown --param key %r (model keys: %s; boundary keys: %s)"
                % (key, ", ".join(MODEL_PARAM_KEYS),
                   ", ".join(BC_PARAM_KEYS)))
    return model_kw, bc_kw


class RunContext:
    """Everything a command needs: model, conditions, numerics, task."""

    def __init__(self, model, bc, bc_ref, numerics, task, provenance):
        self.model = model
        self.bc = bc
        self.bc_ref = bc_ref
        self.numerics = numerics
        self.task = task
        self.provenance = provenance  # {key: where-it-came-from}

    def gap_scale(self):
        g = self.model.declared_gap
        if g is not None and np.isfinite(g.width()):
            return max(1.0, 0.5 * g.width())
        return 1.0

    def k_window(self):
        kw = self.numerics.get("k_window")
        return float(kw) if kw else 20.0 * self.gap_scale()

    def gap(self):
        lo, hi = self.task.get("gap_lo"), self.task.get("gap_hi")
        if lo is not None and hi is not None:
            return GapWindow(lo, hi, "model file")
        return None

    def side(self):
        return self.task.get("side", "halfline")

    def triple(self):
        return self.model.triple(self.side())

    def fibers(self):
        return self.model.fiber_family(self.side())

    def reference_bc(self):
        ref = self.model.reference_bc.get(self.side())
        if ref is None:
            raise DomainError("%s has no reference condition for %s"
                              % (self.model.name, self.side()))
        return ref


def _build_context(args, model_attr="model", param_attr="param",
                   need_bc=False):
    """Assemble the run context from a builtin name or model-file path plus
    flag overrides (flags win over file values)."""
    name_or_path = getattr(args, model_attr)
    params = _parse_params(getattr(args, param_attr, None),
                           "--" + param_attr)
    model_kw, bc_kw = _split_params(params)
    prov = {}

    if os.path.isfile(name_or_path):
        with open(name_or_path, "r", encoding="utf-8") as fh:
            data = modelfile.parse(fh.read())
        data.model.update(model_kw)
        bc_name = getattr(args, "bc", None)
        if bc_name:
            data.boundary = {"family": bc_name}
        if bc_kw:
            data.boundary.update(bc_kw)
            if "family" not in data.boundary:
                raise ModelFileError("boundary parameters given without a "
                                     "family (--bc or [boundary] family)")
        file_num = set(data.numerics)
        model, bc, numerics, task = modelfile.build(data)
        prov["source"] = "model file %s" % name_or_path
    else:
        file_num = set()
        model = build_model(name_or_path, **model_kw)
        bc = None
        bc_name = getattr(args, "bc", None)
        if bc_name:
            bc = model.make_bc(bc_name, **bc_kw)
        elif bc_kw:
            raise ModelFileError("boundary parameters given without --bc")
        numerics = {"tol": 1e-6, "k_window": None,
                    "k_resolution": 801, "lam_resolution": 400}
        task = {"level": model.fiducial_E, "gap_lo": None, "gap_hi": None,
                "side": "halfline"}
        prov["source"] = "builtin model %s" % name_or_path

    for key, flag in (("tol", "tol"), ("k_window", "k_window"),
                      ("k_resolution", "k_resolution"),
                      ("lam_resolution", "lam_resolution")):
        val = getattr(args, flag, None)
        if val is not None:
            numerics[key] = val
            prov[key] = "flag --%s" % flag.replace("_", "-")
        elif numerics.get(key) is not None:
            prov.setdefault(key, "model file [numerics]"
                            if key in file_num else "default")
        else:
            prov[key] = "default"
    if getattr(args, "level", None) is not None:
        task["level"] = args.level
        prov["level"] = "flag --level"
    if getattr(args, "side", None):
        task["side"] = args.side

    bc_ref = None
    ref_name = getattr(args, "bc_ref", None)
    if ref_name:
        model_keys, ref_kw = _split_params(_parse_params(
            getattr(args, "ref_param", None), "--ref-param"))
        if model_keys:
            raise ModelFileError("--ref-param takes boundary parameters only, "
                                 "got model keys %s" % sorted(model_keys))
        bc_ref = model.make_bc(ref_name, **ref_kw)

    ctx = RunContext(model, bc, bc_ref, numerics, task, prov)
    if need_bc and ctx.bc is None:
        raise ModelFileError("this command needs a boundary condition "
                             "(--bc or a [boundary] section)")
    return ctx


def _write_or_print(text, path):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _base_report(ctx, task_name):
    ident = ctx.model.name
    if ctx.model.params:
        ident += "(%s)" % ", ".join(
            "%s=%g" % (k, v) for k, v in sorted(ctx.model.params.items()))
    rep = InvariantReport(ident, task_name)
    rep.add_tolerance("quad tol", ctx.numerics["tol"],
                      ctx.provenance.get("tol", "default"))
    return rep


# ---------------------------------------------------------------------------
# bulk commands


def _level_is_below_spectrum(S, level, k_window):
    ks = np.linspace(-k_window, k_window, 65)
    lo = min(bulk_bands(S, k, np.linspace(-k_window, k_window, 65)).min()
             for k in ks)
    return level <= lo + 1e-9 * (1.0 + abs(lo))


def _check_gap_for_level(ctx):
    """Exit-2 precondition: the fiducial level must avoid the bulk bands
    (an empty projection below the whole spectrum is also fine)."""
    S, level = ctx.model.symbol, ctx.task["level"]
    g = ctx.model.declared_gap
    if g is not None and g.lo < level < g.hi:
        return
    try:
        find_gap(S, level, min(ctx.k_window(), 20.0))
    except NoGapError:
        if not _level_is_below_spectrum(S, level, min(ctx.k_window(), 20.0)):
            raise


def _recorded(fn, *args, **kwargs):
    """Call fn; return its result and one WARN report line per warning it
    raised, so no warning is lost from the report."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args, **kwargs)
    return out, ["WARN: %s" % w.message for w in caught]


def _chern_lines(rep, name, value, resid, tol):
    if resid > max(10.0 * tol, 1e-3):
        rep.add_line("%s = %.3f (NON-INTEGER - not strongly affiliated)"
                     % (name, value))
    else:
        rep.add_line("%s = %.3f (resid %.0e)" % (name, value, resid))


def cmd_bulk(args):
    ctx = _build_context(args)
    _check_gap_for_level(ctx)
    rep = _base_report(ctx, "bulk chern pairing")
    (value, resid), warns = _recorded(chern, ctx.model.symbol,
                                      ctx.task["level"],
                                      tol=ctx.numerics["tol"])
    _chern_lines(rep, "chern", value, resid, ctx.numerics["tol"])
    for line in warns:
        rep.add_line(line)
    rep.add_value("level", ctx.task["level"])
    _write_or_print(rep.render() + "\n", getattr(args, "out", None))
    return 0


def cmd_relative_chern(args):
    ctx1 = _build_context(args)
    ctx2 = _build_context(args, model_attr="model2", param_attr="param2")
    rep = _base_report(ctx1, "relative chern pairing")
    rep.add_line("second model: %s(%s)" % (
        ctx2.model.name, ", ".join("%s=%g" % (k, v) for k, v in
                                   sorted(ctx2.model.params.items()))))
    (value, resid), warns = _recorded(relative_chern, ctx1.model.symbol,
                                      ctx2.model.symbol, ctx1.task["level"],
                                      tol=ctx1.numerics["tol"])
    _chern_lines(rep, "relative chern", value, resid, ctx1.numerics["tol"])
    for line in warns:
        rep.add_line(line)
    _write_or_print(rep.render() + "\n", getattr(args, "out", None))
    return 0


# ---------------------------------------------------------------------------
# edge commands


def _affiliation_banner(ctx, rep, bc, label):
    verdict = affiliation_check(bc, ctx.triple(), ctx.fibers(),
                                bc_ref=ctx.reference_bc())
    rep.add_affiliation(label, verdict.verdict)
    return verdict


def _tracked(ctx, bc):
    return track_bands(bc, ctx.triple(), ctx.model, ctx.k_window(),
                       gap=ctx.gap(),
                       k_resolution=ctx.numerics["k_resolution"],
                       lam_resolution=ctx.numerics["lam_resolution"])


def cmd_edge_spectrum(args):
    ctx = _build_context(args, need_bc=True)
    rep = _base_report(ctx, "edge spectrum")
    rep.add_tolerance("k_window", ctx.k_window(),
                      ctx.provenance.get("k_window", "default"))
    verdict = _affiliation_banner(ctx, rep, ctx.bc, str(ctx.bc))
    if verdict.verdict != "affiliated":
        rep.add_line("WARN: condition is not certified affiliated; spectrum "
                     "is still drawn but invariants may be undefined")
    bands = _tracked(ctx, ctx.bc)
    for i, band in enumerate(bands):
        rep.add_line("band %d: %d samples, k in [%.6g, %.6g], left %s, "
                     "right %s%s"
                     % (i, len(band), band.ks[0], band.ks[-1],
                        band.left.kind, band.right.kind,
                        " (flat)" if band.flat else ""))
    csv_text = dispersion_csv(bands)
    if getattr(args, "out", None):
        _write_or_print(csv_text, args.out)
        rep.add_line("csv: %s" % args.out)
    else:
        sys.stdout.write(csv_text)
    if getattr(args, "plot", None):
        gap = ctx.gap() or ctx.model.declared_gap or \
            find_gap(ctx.model.symbol, ctx.model.gap_around, ctx.k_window())
        svg = spectrum_svg(bands, ctx.model, gap, ctx.k_window(),
                           level=ctx.task["level"])
        _write_or_print(svg, args.plot)
        rep.add_line("svg: %s" % args.plot)
    sys.stdout.write(rep.render() + "\n")
    return 0


def _flow_of(ctx, bc):
    return spectral_flow(_tracked(ctx, bc), level=ctx.task["level"])


def cmd_edge_flow(args):
    ctx = _build_context(args, need_bc=True)
    rep = _base_report(ctx, "edge spectral flow")
    _affiliation_banner(ctx, rep, ctx.bc, str(ctx.bc))
    flow = _flow_of(ctx, ctx.bc)
    rep.add_value("SF", flow.value)
    for k_star, sign in flow.crossings:
        rep.add_line("crossing: k = %.6g, sign = %+d" % (k_star, sign))
    if flow.flagged:
        rep.add_line("FLAGGED: tangency or level-flat band; the count may "
                     "be unreliable")
    _write_or_print(rep.render() + "\n", getattr(args, "out", None))
    return 0


def cmd_winding(args):
    ctx = _build_context(args, need_bc=True)
    rep = _base_report(ctx, "winding of the von Neumann unitary")
    if ctx.bc_ref is not None:
        value, resid = relative_winding(ctx.bc, ctx.bc_ref, ctx.triple(),
                                        ctx.fibers(),
                                        k_window=ctx.k_window())
        rep.add_value("relative winding", value, resid)
    else:
        value, resid = winding(ctx.bc, ctx.triple(), ctx.fibers(),
                               k_window=ctx.k_window())
        rep.add_value("winding", value, resid)
    _write_or_print(rep.render() + "\n", getattr(args, "out", None))
    return 0


# ---------------------------------------------------------------------------
# verify


def _bulk_term(ctx, rep):
    """Model-specific bulk invariant entering the corrected identity, or
    None when it is not an integer class.  Warnings of the pairing go into
    the report."""
    name = ctx.model.name
    level, tol = ctx.task["level"], ctx.numerics["tol"]
    if ctx.side() == "interface":
        (value, resid), warns = _recorded(relative_chern, ctx.model.symbol,
                                          ctx.model.symbol_minus, level,
                                          tol=tol)
        rep.add_value("relative chern (upper vs lower symbol)", value, resid)
        sigma = int(round(value))
    elif name == "laplacian":
        rep.add_value("bulk chern", 0.0, 0.0, note="scalar symbol")
        return 0
    else:
        (value, resid), warns = _recorded(chern, ctx.model.symbol, level,
                                          tol=tol)
        integer = abs(value - round(value)) <= max(10.0 * tol, 1e-3)
        rep.add_value("bulk chern", value, resid, note="" if integer else
                      "non-integer; bulk identity skipped")
        sigma = int(round(value)) if integer else None
    for line in warns:
        rep.add_line(line)
    return sigma


def cmd_verify(args):
    ctx = _build_context(args, need_bc=True)
    ref = ctx.bc_ref if ctx.bc_ref is not None else ctx.reference_bc()
    rep = _base_report(ctx, "corrected correspondence check")
    v1 = _affiliation_banner(ctx, rep, ctx.bc, str(ctx.bc))
    v2 = _affiliation_banner(ctx, rep, ref, str(ref))
    bad = [str(bc) for v, bc in ((v1, ctx.bc), (v2, ref))
           if v.verdict != "affiliated"]
    if bad:
        rep.set_status("SKIPPED", "not affiliated: %s" % ", ".join(bad))
        _write_or_print(rep.render() + "\n", getattr(args, "out", None))
        return 2

    flow1 = _flow_of(ctx, ctx.bc)
    flow2 = _flow_of(ctx, ref)
    wind, resid = relative_winding(ctx.bc, ref, ctx.triple(), ctx.fibers(),
                                   k_window=ctx.k_window())
    rep.add_value("SF(bc)", flow1.value)
    rep.add_value("SF(ref)", flow2.value)
    rep.add_value("relative winding", wind, resid)
    ok = (flow1.value - flow2.value) == wind
    rep.add_line("identity SF(bc) - SF(ref) == relative winding: %s"
                 % ("holds" if ok else
                    "VIOLATED (%+d vs %+d)"
                    % (flow1.value - flow2.value, wind)))

    sigma_b = _bulk_term(ctx, rep)
    if sigma_b is not None:
        ok_bulk = flow1.value == sigma_b + wind
        rep.add_line("identity SF(bc) == bulk + relative winding: %s"
                     % ("holds" if ok_bulk else
                        "VIOLATED (%+d vs %+d)"
                        % (flow1.value, sigma_b + wind)))
        ok = ok and ok_bulk
    if flow1.flagged or flow2.flagged:
        rep.add_line("FLAGGED crossings were present; counts may be "
                     "unreliable")
    rep.set_status("PASS" if ok else "FAIL")
    _write_or_print(rep.render() + "\n", getattr(args, "out", None))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# tables

# Half-plane Laplacian summary, conditions (K + xi k) psi(0) = M psi'(0)
# with M = 1: six affiliated classes with their flows and windings, plus the
# two classes whose affiliation status itself is part of the summary.
LAPLACE_ROWS = (
    ("K real, 0<|xi|<1, xi>0", 1.0, 0.5, 0, 0),
    ("K real, |xi|>1, xi>0", 1.0, 2.0, -1, -1),
    ("K real, |xi|>1, xi<0", 1.0, -2.0, 1, 1),
    ("K>0, |xi|=1, xi>0", 1.0, 1.0, -1, -1),
    ("K>0, |xi|=1, xi<0", 1.0, -1.0, 1, 1),
    ("K<0, |xi|=1", -1.0, 1.0, 0, 0),
)
LAPLACE_AFFILIATION_ROWS = (
    ("K real, xi=0", 1.0, 0.0, "not-affiliated"),
    ("K=0, |xi|=1", 0.0, 1.0, "not-affiliated"),
)

# Half-plane Dirac summary: rows (m, a) -> (relative winding vs a=1, SF).
DIRAC_ROWS = (
    (1.0, 1.0, 0, 1),
    (1.0, 2.0, 0, 1),
    (1.0, 0.5, 0, 1),
    (1.0, -2.0, -1, 0),
    (1.0, -0.5, -1, 0),
    (-1.0, -1.0, -1, -1),
    (-1.0, -2.0, -1, -1),
    (-1.0, -0.5, -1, -1),
    (-1.0, 2.0, 0, 0),
    (-1.0, 0.5, 0, 0),
)

# Regularized Dirac (eps = 0.1) spectral flows for m = -1 and m = +1,
# plus the bulk pairing line.
REGDIRAC_ROWS = (
    ("dirichlet", None, -1, 0),
    ("a = 2", 2.0, -2, -1),
    ("a = 0", 0.0, -1, 0),
    ("a = -2", -2.0, 0, 1),
)
REGDIRAC_BULK = (-1, 0)


def _table_laplacian(rep):
    model = build_model("laplacian")
    T = model.triple()
    fam = model.fiber_family()
    mism = 0
    for label, K, xi, sf_exp, wind_exp in LAPLACE_ROWS:
        bc = model.make_bc("robin", K=K, ell=xi, M=1.0)
        bands = track_bands(bc, T, model, 8.0, k_resolution=481,
                            lam_resolution=320)
        sf = spectral_flow(bands, level=0.0).value
        wind = winding(bc, T, fam, k_window=8.0)[0]
        ok = (sf == sf_exp) and (wind == wind_exp)
        mism += 0 if ok else 1
        rep.add_line("%-24s computed (SF %+d, wind %+d)  expected "
                     "(SF %+d, wind %+d)  %s"
                     % (label, sf, wind, sf_exp, wind_exp,
                        "ok" if ok else "MISMATCH"))
    for label, K, xi, expect in LAPLACE_AFFILIATION_ROWS:
        bc = model.make_bc("robin", K=K, ell=xi, M=1.0)
        verdict = affiliation_check(bc, T, fam).verdict
        ok = verdict == expect
        mism += 0 if ok else 1
        rep.add_line("%-24s computed affiliation %-16s expected %-16s %s"
                     % (label, verdict, expect, "ok" if ok else "MISMATCH"))
    return mism


def _table_dirac(rep):
    mism = 0
    for m, a, wind_exp, sf_exp in DIRAC_ROWS:
        model = build_model("dirac", m=m)
        T = model.triple()
        fam = model.fiber_family()
        bc = model.make_bc("a", a=a)
        ref = model.make_bc("a", a=1.0)
        bands = track_bands(bc, T, model, 6.0, k_resolution=481,
                            lam_resolution=240)
        sf = spectral_flow(bands, level=0.0).value
        wind = relative_winding(bc, ref, T, fam, k_window=6.0)[0]
        ok = (sf == sf_exp) and (wind == wind_exp)
        mism += 0 if ok else 1
        rep.add_line("m=%+g a=%+g   computed (wind %+d, SF %+d)  expected "
                     "(wind %+d, SF %+d)  %s"
                     % (m, a, wind, sf, wind_exp, sf_exp,
                        "ok" if ok else "MISMATCH"))
    return mism


def _table_regdirac(rep):
    mism = 0
    flows = {}
    for mi, m in enumerate((-1.0, 1.0)):
        model = build_model("regdirac", m=m, eps=0.1)
        T = model.triple()
        for label, a, *_ in REGDIRAC_ROWS:
            bc = model.make_bc("dirichlet") if a is None else \
                model.make_bc("a", a=a)
            bands = track_bands(bc, T, model, 12.0, k_resolution=481,
                                lam_resolution=320)
            flows[(label, mi)] = spectral_flow(bands, level=0.0).value
    for label, _a, sf_m_neg, sf_m_pos in REGDIRAC_ROWS:
        got = (flows[(label, 0)], flows[(label, 1)])
        ok = got == (sf_m_neg, sf_m_pos)
        mism += 0 if ok else 1
        rep.add_line("%-10s computed SF (%+d, %+d)  expected (%+d, %+d)  %s"
                     % (label, got[0], got[1], sf_m_neg, sf_m_pos,
                        "ok" if ok else "MISMATCH"))
    cherns, warns = [], []
    for m in (-1.0, 1.0):
        model = build_model("regdirac", m=m, eps=0.1)
        (val, _), w = _recorded(chern, model.symbol, 0.0, tol=1e-4)
        cherns.append(int(round(val)))
        warns += w
    ok = tuple(cherns) == REGDIRAC_BULK
    mism += 0 if ok else 1
    rep.add_line("%-10s computed (%+d, %+d)  expected (%+d, %+d)  %s"
                 % ("bulk", cherns[0], cherns[1], REGDIRAC_BULK[0],
                    REGDIRAC_BULK[1], "ok" if ok else "MISMATCH"))
    for line in warns:
        rep.add_line(line)
    return mism


def cmd_tables(args):
    rep = InvariantReport(args.which, "summary table reproduction")
    mism = {"laplacian": _table_laplacian, "dirac": _table_dirac,
            "regdirac": _table_regdirac}[args.which](rep)
    rep.set_status("all rows match" if mism == 0
                   else "%d row(s) MISMATCH" % mism)
    _write_or_print(rep.render() + "\n", getattr(args, "out", None))
    return 0 if mism == 0 else 1


# ---------------------------------------------------------------------------
# parser


def _add_model_flags(p, with_bc=True):
    p.add_argument("--model", required=True,
                   help="builtin model name or model-file path")
    p.add_argument("--param", action="append", metavar="KEY=VAL",
                   help="model or boundary parameter (repeatable)")
    if with_bc:
        p.add_argument("--bc", help="boundary condition family name")
        p.add_argument("--bc-ref", dest="bc_ref",
                       help="reference condition family name")
        p.add_argument("--ref-param", dest="ref_param", action="append",
                       metavar="KEY=VAL",
                       help="parameter of the reference family (repeatable)")
        p.add_argument("--side", choices=("halfline", "interface"),
                       help="boundary geometry (default halfline)")
    p.add_argument("--level", type=float, help="fiducial energy")
    p.add_argument("--tol", type=float, help="quadrature tolerance")
    p.add_argument("--k-window", dest="k_window", type=float,
                   help="half width of the tracked momentum range")
    p.add_argument("--k-resolution", dest="k_resolution", type=int)
    p.add_argument("--lam-resolution", dest="lam_resolution", type=int)
    p.add_argument("--out", help="write the main output to this file")


def make_parser():
    ap = argparse.ArgumentParser(
        prog="bec",
        description="bulk/edge topological invariants of two-dimensional "
                    "continuum models")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("bulk", help="bulk Chern pairing")
    _add_model_flags(p, with_bc=False)
    p.set_defaults(func=cmd_bulk)

    p = sub.add_parser("relative-chern",
                       help="pairing of the difference of two symbols")
    _add_model_flags(p, with_bc=False)
    p.add_argument("--model2", required=True,
                   help="second builtin name or model-file path")
    p.add_argument("--param2", action="append", metavar="KEY=VAL",
                   help="parameter of the second model (repeatable)")
    p.set_defaults(func=cmd_relative_chern)

    p = sub.add_parser("edge", help="edge-spectrum commands")
    esub = p.add_subparsers(dest="edge_cmd", required=True)
    ps = esub.add_parser("spectrum", help="track dispersion bands (CSV/SVG)")
    _add_model_flags(ps)
    ps.add_argument("--plot", help="write an SVG rendering to this file")
    ps.set_defaults(func=cmd_edge_spectrum)
    pf = esub.add_parser("flow", help="spectral flow through the level")
    _add_model_flags(pf)
    pf.set_defaults(func=cmd_edge_flow)

    p = sub.add_parser("winding",
                       help="winding of the von Neumann unitary")
    _add_model_flags(p)
    p.set_defaults(func=cmd_winding)

    p = sub.add_parser("verify", help="corrected correspondence check")
    _add_model_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tables", help="recompute the summary tables")
    p.add_argument("which", choices=("laplacian", "dirac", "regdirac"))
    p.add_argument("--out", help="write the diff to this file")
    p.set_defaults(func=cmd_tables)
    return ap


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NumericalFailure, InsufficientResolutionError,
            LostBandError) as exc:
        sys.stderr.write("numerical failure: %s\n" % exc)
        return 3
    except BecError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
