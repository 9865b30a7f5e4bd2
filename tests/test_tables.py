"""The windings and affiliation verdicts of the summary tables in bec.cli,
computed with the same calls and momentum windows as `bec tables`.

The spectral flows of the tables need band tracking, seconds per row; all
of them are checked by `bec tables`, and here one member of each mirror pair
that the benchmark's tables-flow workload runs: a flow that moves with the
tracker's numerics fails tier-1.  The regularized Dirac windings take their
expected values from the table's flows through SF(bc) - SF(dirichlet).
"""
import numpy as np
import pytest

from bec.cli import (
    DIRAC_NUMERICS,
    DIRAC_ROWS,
    LAPLACE_AFFILIATION_ROWS,
    LAPLACE_NUMERICS,
    LAPLACE_ROWS,
    REGDIRAC_NUMERICS,
    REGDIRAC_ROWS,
)
from bec.edge import relative_winding, spectral_flow, track_bands, winding
from bec.extension import affiliation_check
from bec.models import build_model

# ROADMAP item 2: the computed evidence settles at rate O(k^-2), so the
# check reports 'affiliated'; it is open whether the row or the check is wrong
DISPUTED = {"K real, xi=0"}
# the regularized Dirac reference condition (a is None) and the others
DIRICHLET_ROW, = [row for row in REGDIRAC_ROWS if row[1] is None]
REGDIRAC_A_ROWS = [row for row in REGDIRAC_ROWS if row[1] is not None]


def _ids(rows):
    return [str(row[0]) if isinstance(row[0], str) else
            "m=%+g a=%+g" % row[:2] for row in rows]


@pytest.mark.parametrize("label, K, xi, sf, wind", LAPLACE_ROWS,
                         ids=_ids(LAPLACE_ROWS))
def test_laplace_row_winding(lap_model, label, K, xi, sf, wind):
    T, fam = lap_model.triple(), lap_model.fiber_family()
    bc = lap_model.make_bc("robin", K=K, ell=xi, M=1.0)
    assert affiliation_check(bc, T, fam).verdict == "affiliated"
    assert winding(bc, T, fam, k_window=LAPLACE_NUMERICS[0])[0] == wind


@pytest.mark.parametrize("label, K, xi, verdict", [
    pytest.param(*row, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 2: disputed affiliation row"))
    if row[0] in DISPUTED else row
    for row in LAPLACE_AFFILIATION_ROWS], ids=_ids(LAPLACE_AFFILIATION_ROWS))
def test_laplace_affiliation_row(lap_model, label, K, xi, verdict):
    bc = lap_model.make_bc("robin", K=K, ell=xi, M=1.0)
    got = affiliation_check(bc, lap_model.triple(), lap_model.fiber_family())
    assert got.verdict == verdict


@pytest.mark.parametrize("m, a, wind, sf", DIRAC_ROWS, ids=_ids(DIRAC_ROWS))
def test_dirac_row_relative_winding(m, a, wind, sf):
    model = build_model("dirac", m=m)
    T, fam = model.triple(), model.fiber_family()
    bc, ref = model.make_bc("a", a=a), model.make_bc("a", a=1.0)
    assert affiliation_check(bc, T, fam, bc_ref=ref).verdict == "affiliated"
    assert relative_winding(bc, ref, T, fam,
                            k_window=DIRAC_NUMERICS[0])[0] == wind


@pytest.mark.parametrize("mi, m", [(0, -1.0), (1, 1.0)], ids=["m=-1", "m=+1"])
@pytest.mark.parametrize("label, a, sf_neg, sf_pos", REGDIRAC_A_ROWS,
                         ids=_ids(REGDIRAC_A_ROWS))
def test_regdirac_row_winding_relative_to_dirichlet(mi, m, label, a, sf_neg,
                                                    sf_pos):
    model = build_model("regdirac", m=m, eps=0.1)
    T, fam = model.triple(), model.fiber_family()
    dirichlet = model.make_bc("dirichlet")
    want = (sf_neg, sf_pos)[mi] - DIRICHLET_ROW[2 + mi]
    bc = model.make_bc("a", a=a)
    assert affiliation_check(bc, T, fam,
                             bc_ref=dirichlet).verdict == "affiliated"
    assert relative_winding(bc, dirichlet, T, fam,
                            k_window=REGDIRAC_NUMERICS[0])[0] == want


def _flow_rows():
    """(id, model name, model parameters, family, family parameters,
    numerics, expected SF, band ends) of one member of each benchmark mirror
    pair.

    The band ends are the (left, right) endpoint kinds of every band, in
    the tracker's order, as recorded from its output while births and
    deaths still had separate end rules; a change of the end rule that
    moves them on real traffic fails here."""
    bulk, k_end = "touches-bulk", "exits-k-window"
    (_, K, xi, lap_sf, _), = [row for row in LAPLACE_ROWS
                              if row[0] == "K>0, |xi|=1, xi>0"]
    (m, a, _, dirac_sf), = [row for row in DIRAC_ROWS if row[:2] == (1.0, 2.0)]
    (_, reg_a, reg_sf, _), = [row for row in REGDIRAC_ROWS
                              if row[0] == "a = 2"]
    return [
        ("laplacian xi=%+g" % xi, "laplacian", {}, "robin",
         {"K": K, "ell": xi, "M": 1.0}, LAPLACE_NUMERICS, lap_sf,
         [(bulk, k_end)]),
        ("dirac m=%+g a=%+g" % (m, a), "dirac", {"m": m}, "a", {"a": a},
         DIRAC_NUMERICS, dirac_sf, [(k_end, bulk)]),
        ("regdirac m=-1 a=%+g" % reg_a, "regdirac", {"m": -1.0, "eps": 0.1},
         "a", {"a": reg_a}, REGDIRAC_NUMERICS, reg_sf,
         [(k_end, bulk), (bulk, bulk)]),
        # analytic: the branches lam = k of both decoupled sides
        ("interface decoupled(1,1)", "dirac", {"m": 1.0, "m_minus": -1.0},
         "decoupled", {"aplus": 1.0, "aminus": 1.0}, DIRAC_NUMERICS, 2,
         [(k_end, k_end)] * 2),
    ]


@pytest.mark.parametrize("name, params, family, kw, numerics, sf, ends",
                         [row[1:] for row in _flow_rows()],
                         ids=[row[0] for row in _flow_rows()])
def test_tracked_spectral_flow_row(name, params, family, kw, numerics, sf,
                                   ends):
    model = build_model(name, **params)
    T = model.triple("interface" if "m_minus" in params else "halfline")
    k_window, k_resolution, lam_resolution = numerics
    bands = track_bands(model.make_bc(family, **kw), T, model, k_window,
                        k_resolution=k_resolution,
                        lam_resolution=lam_resolution)
    assert spectral_flow(bands, level=0.0).value == sf
    assert [(b.left.kind, b.right.kind) for b in bands] == ends
    assert all(np.isfinite([e.k, e.lam]).all()
               for b in bands for e in (b.left, b.right))


def _table_conditions():
    """(id, model name, model parameters, family, family parameters) of
    every boundary condition in the summary tables."""
    out = [("laplacian " + label, "laplacian", {}, "robin",
            {"K": K, "ell": xi, "M": 1.0})
           for label, K, xi, *_ in LAPLACE_ROWS + LAPLACE_AFFILIATION_ROWS]
    out += [("dirac m=%+g a=%+g" % (m, a), "dirac", {"m": m}, "a", {"a": a})
            for m, a, *_ in DIRAC_ROWS]
    out += [("regdirac m=%+g %s" % (m, label), "regdirac",
             {"m": m, "eps": 0.1}, *(("dirichlet", {}) if a is None
                                     else ("a", {"a": a})))
            for m in (-1.0, 1.0) for label, a, *_ in REGDIRAC_ROWS]
    return out


@pytest.mark.parametrize("name, params, family, kw",
                         [row[1:] for row in _table_conditions()],
                         ids=[row[0] for row in _table_conditions()])
def test_self_reference_is_affiliated(name, params, family, kw):
    # U U^{-1} = 1 exactly; the evidence is roundoff and must not decide
    model = build_model(name, **params)
    bc = model.make_bc(family, **kw)
    v = affiliation_check(bc, model.triple(), model.fiber_family(),
                          bc_ref=bc)
    assert v.verdict == "affiliated"
