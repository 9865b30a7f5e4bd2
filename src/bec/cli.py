"""Command-line front end.

Commands and the flags each one reads (every command also takes --out):

    bec bulk            Chern pairing of a bulk symbol at a fiducial level
                        --model --param --level --tol --k-window
    bec relative-chern  pairing of the difference of two comparable symbols
                        --model --param --model2 --param2 --level --tol
    bec edge spectrum   track edge dispersion bands; CSV and optional SVG
                        --model --param --bc --side --level --k-window
                        --k-resolution --lam-resolution --plot
    bec edge flow       spectral flow through the fiducial level: the
                        Maslov index of the level unitary, with crossings
                        --model --param --bc --side --level
    bec winding         (relative) winding of the von Neumann unitary
                        --model --param --bc --bc-ref --ref-param --side
    bec verify          corrected bulk-edge correspondence check
                        --model --param --bc --bc-ref --ref-param --side
                        --level --tol
    bec tables          recompute the three summary tables and diff them
                        laplacian|dirac|regdirac

A flag a command does not read is rejected (exit 2).  Exit codes: 0 success,
1 verification/table mismatch, 2 bad input or inadmissible/non-affiliated
condition, 3 numerical failure.

`--model` is a model-file path or a builtin name; a name is run as the file
whose [model] section names it, so both go through `modelfile.build`, and a
file keeps every [numerics] and [task] key for every command.  `--param
key=val` is routed by modelfile's section table: [model] parameters (m, eps,
m_minus, f, nu) configure the model, [boundary] parameters (a, aplus,
aminus, ell, K, M) the boundary family; `--ref-param` configures
`--bc-ref`.  A non-finite value of `--param`, `--param2` or `--ref-param`
exits 2 naming its key.  `--bc` replaces the file's family and its
parameters but keeps its side.

Flags win over file values: each flag is written into the model data as its
key ([numerics], [task] level, [boundary] side) before `modelfile.build`,
which alone sets the defaults and checks the values (tol, k_window finite
and > 0; resolutions integers >= 2; level finite; gap_lo and gap_hi
together) and exits 2 naming a rejected key.  `relative-chern` takes tol
and level from --model; a --model2 file with [numerics] or [task] exits 2.
"""


import argparse
import os
import sys
import warnings

import numpy as np

from . import modelfile
from .edge import dispersion_csv, level_flow, relative_winding, \
    track_bands, winding
from .errors import BecError, DomainError, InsufficientResolutionError, \
    LostBandError, ModelFileError, NoGapError, NumericalFailure
from .extension import affiliation_check
from .models import build_model
from .report import InvariantReport
from .svgplot import spectrum_svg
from .symbol import bulk_bands, chern, find_gap, is_integer_pairing, \
    relative_chern

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
            if not np.isfinite(out[key]):
                raise ModelFileError("%s: non-finite value %r for key %r"
                                     % (where, val, key))
    return out


def _split_params(params):
    """Route --param keys, by modelfile's section table, to the model's and
    the boundary family's parameters."""
    keys = modelfile.PARAM_KEYS
    split = {"model": {}, "boundary": {}}
    for key, val in params.items():
        section = next((s for s in split if key in keys[s]), None)
        if section is None:
            raise ModelFileError(
                "unknown --param key %r (model keys: %s; boundary keys: %s)"
                % (key, ", ".join(keys["model"]), ", ".join(keys["boundary"])))
        split[section][key] = val
    return split["model"], split["boundary"]


class RunContext:
    """Everything a command needs: model, conditions, numerics, task."""

    def __init__(self, model, bc, bc_ref, numerics, task, provenance):
        self.model = model
        self.bc = bc
        self.bc_ref = bc_ref
        self.numerics = numerics
        self.task = task
        # {numerics key the command has a flag for: where its value
        # came from}
        self.provenance = provenance

    def triple(self):
        return self.model.triple(self.task["side"])

    def fibers(self):
        return self.model.fiber_family(self.task["side"])

    def reference_bc(self):
        ref = self.model.reference_bc.get(self.task["side"])
        if ref is None:
            raise DomainError("%s has no reference condition for %s"
                              % (self.model.name, self.task["side"]))
        return ref


# the flags that set a model-file key, by the section of the key
_FLAG_SECTIONS = dict({key: "numerics"
                       for key in modelfile.SECTION_KEYS["numerics"]},
                      level="task", side="boundary")


def _model_data(name_or_path, param_groups, where, bc_name=None):
    """The model file, or a builtin name as the file whose [model] names it,
    with the --param groups (flag `where`) and --bc applied."""
    model_kw, bc_kw = _split_params(_parse_params(param_groups, where))
    if os.path.isfile(name_or_path):
        with open(name_or_path, "r", encoding="utf-8") as fh:
            data = modelfile.parse(fh.read())
    else:
        data = modelfile.ModelFileData()
        data.model = {"name": name_or_path}
    data.model.update(model_kw)
    if bc_name:
        data.boundary = {k: v for k, v in data.boundary.items()
                         if k == "side"}
        data.boundary["family"] = bc_name
    if bc_kw:
        data.boundary.update(bc_kw)
        if "family" not in data.boundary:
            raise ModelFileError("boundary parameters given without a "
                                 "family (--bc or [boundary] family)")
    return data


def _build_context(args):
    """The run context: every flag written into the model data, then
    `modelfile.build` sets the defaults and checks the values.  A command
    that takes --bc needs a condition."""
    data = _model_data(args.model, getattr(args, "param", None), "--param",
                       getattr(args, "bc", None))
    if hasattr(args, "bc") and not data.boundary:
        raise ModelFileError("this command needs a boundary condition "
                             "(--bc or a [boundary] section)")
    prov = {}
    for key, section in _FLAG_SECTIONS.items():
        value = getattr(args, key, None)
        if section == "numerics" and hasattr(args, key):
            prov[key] = ("flag --%s" % key.replace("_", "-")
                         if value is not None else
                         "model file [numerics]" if key in data.numerics
                         else "default")
        if value is not None:
            getattr(data, section)[key] = value
    model, bc, numerics, task = modelfile.build(data)

    bc_ref = None
    ref_name = getattr(args, "bc_ref", None)
    if ref_name:
        model_keys, ref_kw = _split_params(_parse_params(
            getattr(args, "ref_param", None), "--ref-param"))
        if model_keys:
            raise ModelFileError("--ref-param takes boundary parameters only, "
                                 "got model keys %s" % sorted(model_keys))
        bc_ref = model.make_bc(ref_name, **ref_kw)
    return RunContext(model, bc, bc_ref, numerics, task, prov)


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
    if "tol" in ctx.provenance:
        rep.add_tolerance("quad tol", ctx.numerics["tol"],
                          ctx.provenance["tol"])
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
    k_window = min(ctx.numerics["k_window"], 20.0)
    try:
        find_gap(S, level, k_window)
    except NoGapError:
        if not _level_is_below_spectrum(S, level, k_window):
            raise


def _recorded(fn, *args, **kwargs):
    """Call fn; return its result and one WARN report line per warning it
    raised, so no warning is lost from the report."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args, **kwargs)
    return out, ["WARN: %s" % w.message for w in caught]


def _chern_lines(rep, name, value, resid, tol):
    if not is_integer_pairing(value, tol):
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
    data2 = _model_data(args.model2, args.param2, "--param2")
    if data2.numerics or data2.task:
        raise ModelFileError("--model2 %s: [numerics] and [task] keys (%s) "
                             "belong to --model; one pairing has one tol "
                             "and one level" % (args.model2, ", ".join(
                                 list(data2.numerics) + list(data2.task))))
    model2 = modelfile.build(data2)[0]
    rep = _base_report(ctx1, "relative chern pairing")
    rep.add_line("second model: %s(%s)" % (
        model2.name, ", ".join("%s=%g" % (k, v) for k, v in
                               sorted(model2.params.items()))))
    (value, resid), warns = _recorded(relative_chern, ctx1.model.symbol,
                                      model2.symbol, ctx1.task["level"],
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


def cmd_edge_spectrum(args):
    ctx = _build_context(args)
    rep = _base_report(ctx, "edge spectrum")
    rep.add_tolerance("k_window", ctx.numerics["k_window"],
                      ctx.provenance["k_window"])
    verdict = _affiliation_banner(ctx, rep, ctx.bc, str(ctx.bc))
    if verdict.verdict != "affiliated":
        rep.add_line("WARN: condition is not certified affiliated; spectrum "
                     "is still drawn but invariants may be undefined")
    bands = track_bands(ctx.bc, ctx.triple(), ctx.model,
                        ctx.numerics["k_window"], gap=ctx.task["gap"],
                        k_resolution=ctx.numerics["k_resolution"],
                        lam_resolution=ctx.numerics["lam_resolution"])
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
        k_window = ctx.numerics["k_window"]
        gap = ctx.task["gap"] or ctx.model.declared_gap or \
            find_gap(ctx.model.symbol, ctx.model.gap_around, k_window)
        svg = spectrum_svg(bands, ctx.model, gap, k_window,
                           level=ctx.task["level"])
        _write_or_print(svg, args.plot)
        rep.add_line("svg: %s" % args.plot)
    sys.stdout.write(rep.render() + "\n")
    return 0


def _flow_of(ctx, bc, rep, name):
    """The spectral flow of bc through the task level, reported as name
    with its rounding residual, plus its end margins: per side the end
    eigenphase of smallest magnitude and its shrink factor per decade."""
    flow = level_flow(bc, ctx.triple(), ctx.fibers(), ctx.task["level"])
    rep.add_value(name, flow.value, flow.resid)
    rep.add_line("%s end phases: %s" % (name, ", ".join(
        "k -> %sinf %+.2e (shrink %.3g per decade)" % (side, phi, shrink)
        for side, (phi, shrink) in zip("-+", flow.ends))))
    return flow


def cmd_edge_flow(args):
    ctx = _build_context(args)
    rep = _base_report(ctx, "edge spectral flow")
    _affiliation_banner(ctx, rep, ctx.bc, str(ctx.bc))
    flow = _flow_of(ctx, ctx.bc, rep, "SF")
    for k_star, sign in flow.crossings:
        rep.add_line("crossing: k = %.6g, sign = %+d" % (k_star, sign))
    _write_or_print(rep.render() + "\n", getattr(args, "out", None))
    return 0


def cmd_winding(args):
    ctx = _build_context(args)
    rep = _base_report(ctx, "winding of the von Neumann unitary")
    value, resid = winding(ctx.bc, ctx.triple(), ctx.fibers(),
                           bc_ref=ctx.bc_ref)
    rep.add_value("winding" if ctx.bc_ref is None else "relative winding",
                  value, resid)
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
    if ctx.task["side"] == "interface":
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
        integer = is_integer_pairing(value, tol)
        rep.add_value("bulk chern", value, resid, note="" if integer else
                      "non-integer; bulk identity skipped")
        sigma = int(round(value)) if integer else None
    for line in warns:
        rep.add_line(line)
    return sigma


def cmd_verify(args):
    ctx = _build_context(args)
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

    flow1 = _flow_of(ctx, ctx.bc, rep, "SF(bc)")
    flow2 = _flow_of(ctx, ref, rep, "SF(ref)")
    wind, resid = relative_winding(ctx.bc, ref, ctx.triple(), ctx.fibers())
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

# (k_window, k_resolution, lam_resolution) of the tracked cross-check of each
# table's counts, which only the tests run; tests/test_bench_contract.py
# pins perfbench's copies to these.  The tables count every flow at the
# model's fiducial level (the Laplacian's lies in its gap, below 0).
LAPLACE_NUMERICS = (8.0, 481, 320)
DIRAC_NUMERICS = (6.0, 481, 240)
REGDIRAC_NUMERICS = (12.0, 481, 320)


def _table_laplacian(rep):
    model = build_model("laplacian")
    T = model.triple()
    fam = model.fiber_family()
    mism = 0
    for label, K, xi, sf_exp, wind_exp in LAPLACE_ROWS:
        bc = model.make_bc("robin", K=K, ell=xi, M=1.0)
        sf = level_flow(bc, T, fam, model.fiducial_E).value
        wind = winding(bc, T, fam)[0]
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
        sf = level_flow(bc, T, fam, model.fiducial_E).value
        wind = relative_winding(bc, ref, T, fam)[0]
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
        T, fam = model.triple(), model.fiber_family()
        for label, a, *_ in REGDIRAC_ROWS:
            bc = model.make_bc("dirichlet") if a is None else \
                model.make_bc("a", a=a)
            flows[(label, mi)] = level_flow(bc, T, fam,
                                            model.fiducial_E).value
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


# every option, with its argparse keywords; each command names the ones it
# reads in _COMMANDS
_OPTIONS = {
    "--model": dict(required=True,
                    help="builtin model name or model-file path"),
    "--param": dict(action="append", metavar="KEY=VAL",
                    help="model or boundary parameter (repeatable)"),
    "--model2": dict(required=True,
                     help="second builtin name or model-file path"),
    "--param2": dict(action="append", metavar="KEY=VAL",
                     help="parameter of the second model (repeatable)"),
    "--bc": dict(help="boundary condition family name"),
    "--bc-ref": dict(help="reference condition family name"),
    "--ref-param": dict(action="append", metavar="KEY=VAL",
                        help="parameter of the reference family "
                             "(repeatable)"),
    "--side": dict(choices=("halfline", "interface"),
                   help="boundary geometry (default halfline)"),
    "--level": dict(type=float, help="fiducial energy"),
    "--tol": dict(type=float, help="quadrature tolerance"),
    "--k-window": dict(type=float,
                       help="half width of the momentum range that edge "
                            "spectrum tracks and bulk searches for a gap"),
    "--k-resolution": dict(type=int),
    "--lam-resolution": dict(type=int,
                             help="cap on evaluated energy samples per "
                                  "column"),
    "--plot": dict(help="write an SVG rendering to this file"),
    "--out": dict(help="write the main output to this file"),
    "which": dict(choices=("laplacian", "dirac", "regdirac")),
}

# (command words, help, function, options)
_COMMANDS = (
    ("bulk", "bulk Chern pairing", cmd_bulk,
     "--model --param --level --tol --k-window --out"),
    ("relative-chern", "pairing of the difference of two symbols",
     cmd_relative_chern,
     "--model --param --model2 --param2 --level --tol --out"),
    ("edge spectrum", "track dispersion bands (CSV/SVG)", cmd_edge_spectrum,
     "--model --param --bc --side --level --k-window --k-resolution "
     "--lam-resolution --out --plot"),
    ("edge flow", "spectral flow through the level", cmd_edge_flow,
     "--model --param --bc --side --level --out"),
    ("winding", "winding of the von Neumann unitary", cmd_winding,
     "--model --param --bc --bc-ref --ref-param --side --out"),
    ("verify", "corrected correspondence check", cmd_verify,
     "--model --param --bc --bc-ref --ref-param --side --level --tol --out"),
    ("tables", "recompute the summary tables", cmd_tables, "which --out"),
)


def make_parser():
    ap = argparse.ArgumentParser(
        prog="bec",
        description="bulk/edge topological invariants of two-dimensional "
                    "continuum models")
    sub = ap.add_subparsers(dest="cmd", required=True)
    edge = None
    for words, help_text, func, options in _COMMANDS:
        if words.startswith("edge "):
            if edge is None:
                edge = sub.add_parser("edge", help="edge-spectrum commands") \
                    .add_subparsers(dest="edge_cmd", required=True)
            p = edge.add_parser(words.split()[1], help=help_text)
        else:
            p = sub.add_parser(words, help=help_text)
        for option in options.split():
            p.add_argument(option, **_OPTIONS[option])
        p.set_defaults(func=func)
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
