"""Job pools of the benchmark workloads.

Every job is one call sequence through bec's public API, the one
`bec tables` uses: build_model -> make_bc -> track_bands + spectral_flow,
affiliation_check + winding / relative_winding, chern / relative_chern.
Each job carries the value it must produce and where that value comes from.

A pool is a list of slots; a slot is a tuple of interchangeable jobs, and a
round of a workload runs one seed-chosen job of every slot in seed order.

The rows below are copies of the summary tables in bec.cli, so that a change
to the program cannot move the benchmark's expectations with it; smoke.py
checks that the copies still equal the tables.
"""

import warnings
from dataclasses import dataclass
from typing import Callable

# (label, K, xi, SF, winding): bec.cli.LAPLACE_ROWS
LAPLACE_ROWS = (
    ("K real, 0<|xi|<1, xi>0", 1.0, 0.5, 0, 0),
    ("K real, |xi|>1, xi>0", 1.0, 2.0, -1, -1),
    ("K real, |xi|>1, xi<0", 1.0, -2.0, 1, 1),
    ("K>0, |xi|=1, xi>0", 1.0, 1.0, -1, -1),
    ("K>0, |xi|=1, xi<0", 1.0, -1.0, 1, 1),
    ("K<0, |xi|=1", -1.0, 1.0, 0, 0),
)
# (label, K, xi, verdict): bec.cli.LAPLACE_AFFILIATION_ROWS
LAPLACE_AFFILIATION_ROWS = (
    ("K real, xi=0", 1.0, 0.0, "not-affiliated"),
    ("K=0, |xi|=1", 0.0, 1.0, "not-affiliated"),
)
# (m, a, relative winding vs a=1, SF): bec.cli.DIRAC_ROWS
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
# (label, a or None for dirichlet, SF at m=-1, SF at m=+1):
# bec.cli.REGDIRAC_ROWS
REGDIRAC_ROWS = (
    ("dirichlet", None, -1, 0),
    ("a = 2", 2.0, -2, -1),
    ("a = 0", 0.0, -1, 0),
    ("a = -2", -2.0, 0, 1),
)
# bulk Chern numbers at m = -1 and m = +1: bec.cli.REGDIRAC_BULK
REGDIRAC_BULK = (-1, 0)
REGDIRAC_EPS = 0.1

# numerics of `bec tables`: (k_window, k_resolution, lam_resolution)
LAPLACE_NUMERICS = (8.0, 481, 320)
DIRAC_NUMERICS = (6.0, 481, 240)
REGDIRAC_NUMERICS = (12.0, 481, 320)
# the CLI default quadrature tolerance
BULK_TOL = 1e-6
NON_INTEGER = "non-integer"

# tables-flow runs one member of each mirror pair: (m, a) -> (-m, -a) for
# Dirac, xi -> -xi for the Laplacian, m -> -m for regdirac, and the two
# interface conditions.  Members of a pair cost within 8% of each other at
# the seed, so the seed's draw does not move the run's median.
FLOW_PAIRS = (
    ("laplacian K>0, |xi|=1, xi>0 flow", "laplacian K>0, |xi|=1, xi<0 flow"),
    ("dirac m=+1 a=+2 flow", "dirac m=-1 a=-2 flow"),
    ("regdirac m=-1 a = 2 flow", "regdirac m=+1 a = 2 flow"),
    ("interface transparent flow", "interface decoupled(1,1) flow"),
)
# the fixed jobs of the traced run, one per job kind
REFERENCE_JOBS = {
    "flow": "dirac m=+1 a=+2 flow",
    "winding": "dirac m=+1 a=+2 winding",
    "chern": "regdirac m=-1 chern",
}
# ROADMAP item 2: the seed computes `affiliated` for this row and it is not
# settled whether the row or affiliation_check is wrong.  The mismatch counts
# as a failed job; it does not make the run's output incorrect.
DISPUTED = {"laplacian K real, xi=0 affiliation":
            "ROADMAP item 2: the seed computes 'affiliated'"}


@dataclass(frozen=True)
class Job:
    name: str
    kind: str       # flow | winding | chern
    expected: object
    source: str     # where the expected value comes from
    run: Callable   # run(tracer) -> result comparable to expected

    def check(self, tracer):
        """Run the job; returns (result, whether it matches expected)."""
        got = self.run(tracer)
        if self.expected == NON_INTEGER:
            value, verdict = got
            return got, verdict == NON_INTEGER and abs(abs(value) - 0.5) < 1e-3
        return got, got == self.expected


def band_stats(bands):
    """Tracker output: bands, samples and bulk merges of one track."""
    ends = [e for b in bands for e in (b.left, b.right) if e is not None]
    return {"bands": len(bands),
            "samples": sum(len(b) for b in bands),
            "bulk_merges": sum(e.kind == "touches-bulk" for e in ends)}


def _flow(bec, bc, T, model, numerics):
    k_window, k_res, lam_res = numerics

    def run(tr):
        with tr.span("edge.track_bands") as sp:
            bands = bec.track_bands(bc, T, model, k_window,
                                    k_resolution=k_res, lam_resolution=lam_res)
            if sp is not None:
                sp["out"] = band_stats(bands)
        with tr.span("edge.spectral_flow"):
            return bec.spectral_flow(bands, level=0.0).value
    return run


def _winding(bec, bc, T, fam, k_window, ref=None):
    """Affiliation verdict first, as `bec verify` does, then the winding,
    both relative to ref when given."""

    def run(tr):
        with tr.span("extension.affiliation_check"):
            verdict = bec.affiliation_check(bc, T, fam, bc_ref=ref).verdict
        with tr.span("edge.winding"):
            if ref is None:
                w = bec.winding(bc, T, fam, k_window=k_window)[0]
            else:
                w = bec.relative_winding(bc, ref, T, fam,
                                         k_window=k_window)[0]
        return w, verdict
    return run


def _affiliation(bec, bc, T, fam):
    def run(tr):
        with tr.span("extension.affiliation_check"):
            return bec.affiliation_check(bc, T, fam).verdict
    return run


def _pairing(pairing):
    """Integer pairing, or (value, 'non-integer') when the value is farther
    than max(10 tol, 1e-3) from an integer, as `bec bulk` decides."""

    def run(tr):
        with tr.span("symbol.chern"), warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            value, _ = pairing(BULK_TOL)
        if abs(value - round(value)) > max(10.0 * BULK_TOL, 1e-3):
            return value, NON_INTEGER
        return int(round(value))
    return run


def build_jobs(bec):
    """Build every model, triple and boundary condition; returns
    ({workload: [slot, ...]}, {name: Job}).  `bec` is the imported package."""
    flows, windings, cherns = [], [], []

    lap = bec.build_model("laplacian")
    T, fam = lap.triple(), lap.fiber_family()
    for label, K, xi, sf, w in LAPLACE_ROWS:
        bc = lap.make_bc("robin", K=K, ell=xi, M=1.0)
        src = "table LAPLACE_ROWS %r" % label
        flows.append(Job("laplacian %s flow" % label, "flow", sf, src,
                         _flow(bec, bc, T, lap, LAPLACE_NUMERICS)))
        windings.append(Job("laplacian %s winding" % label, "winding",
                            (w, "affiliated"),
                            src + ", an affiliated class",
                            _winding(bec, bc, T, fam, LAPLACE_NUMERICS[0])))
    for label, K, xi, verdict in LAPLACE_AFFILIATION_ROWS:
        bc = lap.make_bc("robin", K=K, ell=xi, M=1.0)
        windings.append(Job("laplacian %s affiliation" % label, "winding",
                            verdict,
                            "table LAPLACE_AFFILIATION_ROWS %r" % label,
                            _affiliation(bec, bc, T, fam)))

    for m, a, w, sf in DIRAC_ROWS:
        model = bec.build_model("dirac", m=m)
        T, fam = model.triple(), model.fiber_family()
        bc, ref = model.make_bc("a", a=a), model.make_bc("a", a=1.0)
        tag = "dirac m=%+g a=%+g" % (m, a)
        src = "table DIRAC_ROWS (m=%+g, a=%+g)" % (m, a)
        flows.append(Job(tag + " flow", "flow", sf, src,
                         _flow(bec, bc, T, model, DIRAC_NUMERICS)))
        windings.append(Job(tag + " winding", "winding", (w, "affiliated"),
                            src + ", a row of the correspondence",
                            _winding(bec, bc, T, fam, DIRAC_NUMERICS[0],
                                     ref=ref)))

    for mi, m in enumerate((-1.0, 1.0)):
        model = bec.build_model("regdirac", m=m, eps=REGDIRAC_EPS)
        T, fam = model.triple(), model.fiber_family()
        dirichlet = model.make_bc("dirichlet")
        sf_ref = REGDIRAC_ROWS[0][2 + mi]
        for label, a, *sfs in REGDIRAC_ROWS:
            bc = dirichlet if a is None else model.make_bc("a", a=a)
            tag = "regdirac m=%+g %s" % (m, label)
            flows.append(Job(tag + " flow", "flow", sfs[mi],
                             "table REGDIRAC_ROWS %r" % label,
                             _flow(bec, bc, T, model, REGDIRAC_NUMERICS)))
            if a is not None:
                windings.append(Job(
                    tag + " winding", "winding",
                    (sfs[mi] - sf_ref, "affiliated"),
                    "identity SF(bc) - SF(dirichlet) on table REGDIRAC_ROWS "
                    "%r, a row of the correspondence" % label,
                    _winding(bec, bc, T, fam, REGDIRAC_NUMERICS[0],
                             ref=dirichlet)))

    iface = bec.build_model("dirac", m=1.0, m_minus=-1.0)
    T, fam = iface.triple("interface"), iface.fiber_family("interface")
    transparent = iface.make_bc("transparent")
    decoupled = iface.make_bc("decoupled", aplus=1.0, aminus=1.0)
    analytic = "analytic: branch lam = k, %s (tests/test_edge.py)"
    flows.append(Job("interface transparent flow", "flow", 1,
                     analytic % "single",
                     _flow(bec, transparent, T, iface, DIRAC_NUMERICS)))
    flows.append(Job("interface decoupled(1,1) flow", "flow", 2,
                     analytic % "doubled",
                     _flow(bec, decoupled, T, iface, DIRAC_NUMERICS)))
    windings.append(Job("interface decoupled vs transparent winding",
                        "winding", (1, "affiliated"),
                        "identity SF(decoupled) - SF(transparent) = 2 - 1 "
                        "on the analytic flows",
                        _winding(bec, decoupled, T, fam, DIRAC_NUMERICS[0],
                                 ref=transparent)))

    for mi, m in enumerate((-1.0, 1.0)):
        S = bec.build_model("regdirac", m=m, eps=REGDIRAC_EPS).symbol
        cherns.append(Job("regdirac m=%+g chern" % m, "chern",
                          REGDIRAC_BULK[mi], "table REGDIRAC_BULK",
                          _pairing(lambda tol, S=S: bec.chern(S, 0.0,
                                                              tol=tol))))
    S_pos = bec.build_model("dirac", m=1.0).symbol
    S_neg = bec.build_model("dirac", m=-1.0).symbol
    cherns.append(Job("dirac(+1) vs dirac(-1) relative chern", "chern", 1,
                      "test test_relative_chern_two_band_masses",
                      _pairing(lambda tol: bec.relative_chern(
                          S_pos, S_neg, 0.0, tol=tol))))
    cherns.append(Job("dirac(-1) vs dirac(+1) relative chern", "chern", -1,
                      "identity: antisymmetry of the relative pairing",
                      _pairing(lambda tol: bec.relative_chern(
                          S_neg, S_pos, 0.0, tol=tol))))
    cherns.append(Job("dirac m=+1 chern", "chern", NON_INTEGER,
                      "test test_bulk_two_band_reports_non_integer, at the "
                      "analytic half-integer 0.5 of a massive Dirac symbol",
                      _pairing(lambda tol: bec.chern(S_pos, 0.0, tol=tol))))
    S_lap = lap.symbol
    cherns.append(Job("laplacian level -1 chern", "chern", 0,
                      "test test_bulk_scalar_model_pairs_to_zero",
                      _pairing(lambda tol: bec.chern(S_lap, -1.0, tol=tol))))
    S_sw = bec.build_model("shallow", f=1.0, nu=0.1).symbol
    cherns.append(Job("shallow f=1 nu=0.1 level 0.5 chern", "chern", -2,
                      "seed output, recorded as such; the literature gives "
                      "band Chern numbers of +-2",
                      _pairing(lambda tol: bec.chern(S_sw, 0.5, tol=tol))))

    by_name = {j.name: j for j in flows + windings + cherns}
    pools = {
        "tables-flow": [tuple(by_name[n] for n in pair)
                        for pair in FLOW_PAIRS],
        "tables-winding": [(j,) for j in windings],
        "bulk-pairing": [(j,) for j in cherns],
    }
    return pools, by_name
