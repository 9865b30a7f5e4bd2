"""Invariances of the reported windings and flows.

* Row mixing: (A, B) and (R A, R B), with R(k) polynomial and invertible on
  the real line, are the same boundary condition.  On every table winding
  condition the (relative) winding integer is unchanged, and the det U
  samples agree within 1e-12 cond R(k).
* Relative windings are antisymmetric, W(a, b) = -W(b, a), and additive,
  W(a, b) + W(b, c) = W(a, c).  No expected value of these comes from a
  table.  On the Laplacian Robin rows, whose table gives absolute
  windings w, also W(a, b) = w(a) - w(b).
* One end reading: a relative winding's loop closes exactly where
  `affiliation_check` finds the unitary within the closure constant of the
  reference at K_LIMIT on both sides; both read the same large-momentum
  stage, so the deviations agree bit for bit.
* Line sampling (ROADMAP items 4 and 12): doubling the seeds of the
  momentum line and halving its step bound leaves every table integer
  unchanged on all 49 table curves, the 26 flows of `level_flow` and the
  23 windings, with every crossing sign, and every crossing momentum to
  1e-6 relative.
"""
import itertools

import numpy as np
import pytest

from bec import edge
from bec.cli import DIRAC_ROWS, LAPLACE_ROWS, REGDIRAC_ROWS
from bec.edge import (
    K_LIMIT,
    _PHASE_SEEDS,
    _closure_deviation,
    level_flow,
    relative_winding,
    winding,
)
from bec.errors import NotComparableError
from bec.extension import _SETTLE, _unitary_dets, affiliation_check, from_ab
from bec.models import build_model
from test_tables import _count_rows


def _table_windings():
    """(id, model, side, condition, reference or None) of every table
    winding: the Laplacian rows, the Dirac rows against a = 1, the
    regdirac rows against Dirichlet, and the Dirac interface decoupled(1, 1)
    against transparent."""
    cases = []
    lap = build_model("laplacian")
    for label, K, xi, *_ in LAPLACE_ROWS:
        cases.append(("laplacian " + label, lap, "halfline",
                      lap.make_bc("robin", K=K, ell=xi, M=1.0), None))
    for m, a, *_ in DIRAC_ROWS:
        model = build_model("dirac", m=m)
        cases.append(("dirac m=%+g a=%+g" % (m, a), model, "halfline",
                      model.make_bc("a", a=a), model.make_bc("a", a=1.0)))
    for m in (-1.0, 1.0):
        model = build_model("regdirac", m=m, eps=0.1)
        for label, a, *_ in REGDIRAC_ROWS:
            if a is not None:
                cases.append(("regdirac m=%+g %s" % (m, label), model,
                              "halfline", model.make_bc("a", a=a),
                              model.make_bc("dirichlet")))
    iface = build_model("dirac", m=1.0, m_minus=-1.0)
    cases.append(("interface decoupled", iface, "interface",
                  iface.make_bc("decoupled", aplus=1.0, aminus=1.0),
                  iface.make_bc("transparent")))
    return cases


_CASES = _table_windings()


def _mixing(p):
    """Coefficients of R(k), invertible for every real k: the scalar
    (0.7 - 1.3i)(k + 2i) for p = 1, and R0 (k + i diag(1, 3)) for p = 2,
    whose determinant det R0 (k + i)(k + 3i) has no real zero."""
    if p == 1:
        return [np.array([[(0.7 - 1.3j) * 2j]]), np.array([[0.7 - 1.3j]])]
    rng = np.random.default_rng(17)
    R0 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return [1j * R0 @ np.diag([1.0, 3.0]), R0]


def _mixed(bc, R):
    """The condition (R A, R B), by products of coefficient lists."""
    def times(X):
        out = [0.0] * (len(R) + len(X) - 1)
        for i, Ri in enumerate(R):
            for j, Xj in enumerate(X):
                out[i + j] = out[i + j] + Ri @ Xj
        return out
    return from_ab(*(times(X) for X in bc._ab_poly), label=bc.label)


@pytest.mark.parametrize("name, model, side, bc, ref", _CASES,
                         ids=[case[0] for case in _CASES])
def test_winding_invariant_under_row_mixing(name, model, side, bc, ref):
    T, fam = model.triple(side), model.fiber_family(side)
    R = _mixing(T.dimV)
    mixed = _mixed(bc, R)
    mixed_ref = None if ref is None else _mixed(ref, R)
    assert (winding(mixed, T, fam, bc_ref=mixed_ref)[0]
            == winding(bc, T, fam, bc_ref=ref)[0])
    # the seed samples of the phase curve, out to the ends +-K_LIMIT
    s_lim = (2.0 / np.pi) * np.arctan(K_LIMIT)
    ks = np.tan(0.5 * np.pi * np.linspace(-s_lim, s_lim, _PHASE_SEEDS))
    dets = _unitary_dets(bc, T, fam, ks, bc_ref=ref)
    mixed_dets = _unitary_dets(mixed, T, fam, ks, bc_ref=mixed_ref)
    cond = np.linalg.cond([R[0] + k * R[1] for k in ks])
    assert np.all(np.abs(mixed_dets - dets) <= 1e-12 * cond)


@pytest.mark.parametrize("name, params, conditions, absolute", [
    ("laplacian", {},
     [("robin", {"K": K, "ell": xi, "M": 1.0})
      for _, K, xi, *_ in LAPLACE_ROWS],
     [wind for *_, wind in LAPLACE_ROWS]),
    ("dirac", {"m": 1.0}, [("a", {"a": a}) for a in (2.0, 0.5, -2.0, 1.0)],
     None),
    ("dirac", {"m": -1.0}, [("a", {"a": a}) for a in (2.0, 0.5, -2.0, 1.0)],
     None),
    ("regdirac", {"m": -1.0, "eps": 0.1},
     [("a", {"a": a}) for a in (2.0, 0.0, -2.0)] + [("dirichlet", {})],
     None),
], ids=["laplacian robin rows", "dirac m=+1", "dirac m=-1", "regdirac m=-1"])
def test_relative_windings_antisymmetric_and_additive(name, params,
                                                      conditions, absolute):
    model = build_model(name, **params)
    T, fam = model.triple(), model.fiber_family()
    bcs = [model.make_bc(family, **kw) for family, kw in conditions]
    w = {(i, j): relative_winding(bcs[i], bcs[j], T, fam)[0]
         for i, j in itertools.permutations(range(len(bcs)), 2)}
    for (i, j), value in w.items():
        assert value == -w[j, i]
        if absolute is not None:
            assert value == absolute[i] - absolute[j]
    for i, j, k in itertools.permutations(range(len(bcs)), 3):
        assert w[i, j] + w[j, k] == w[i, k]


def _closure_cases():
    """The table windings taken against a reference, and the Laplacian row
    'K=0, |xi|=1' against Dirichlet, whose loop does not close."""
    lap = build_model("laplacian")
    return [case for case in _CASES if case[4] is not None] + [
        ("laplacian K=0, |xi|=1 vs dirichlet", lap, "halfline",
         lap.make_bc("robin", K=0.0, ell=1.0, M=1.0),
         lap.make_bc("dirichlet"))]


_CLOSURE_CASES = _closure_cases()


@pytest.mark.parametrize("name, model, side, bc, ref", _CLOSURE_CASES,
                         ids=[case[0] for case in _CLOSURE_CASES])
def test_winding_closes_exactly_where_affiliation_settles_at_k_limit(
        name, model, side, bc, ref):
    T, fam = model.triple(side), model.fiber_family(side)
    evidence = affiliation_check(bc, T, fam, bc_ref=ref).evidence
    dev = max(evidence["+"][-1], evidence["-"][-1])
    assert _closure_deviation(bc, T, fam, ref) == dev
    # only the Laplacian pair stays apart: its deviation reads 2.000
    assert (dev > _SETTLE) == name.startswith("laplacian")
    if dev > _SETTLE:
        with pytest.raises(NotComparableError, match=r"deviation 2\.000"):
            relative_winding(bc, ref, T, fam)
    else:
        relative_winding(bc, ref, T, fam)


def _line_curves():
    """The value and crossings of every table flow, and every table
    winding, at the current sampling of the momentum line."""
    flows = []
    for _, name, params, side, family, kw, _ in _count_rows():
        model = build_model(name, **params)
        flow = level_flow(model.make_bc(family, **kw), model.triple(side),
                          model.fiber_family(side), model.fiducial_E)
        flows.append((flow.value, flow.crossings))
    windings = [winding(bc, model.triple(side), model.fiber_family(side),
                        bc_ref=ref)[0]
                for _, model, side, bc, ref in _CASES]
    return flows, windings


def test_finer_line_sampling_leaves_every_table_curve(monkeypatch):
    flows, windings = _line_curves()
    assert len(flows) + len(windings) == 49
    monkeypatch.setattr(edge, "_PHASE_SEEDS", 2 * edge._PHASE_SEEDS - 1)
    monkeypatch.setattr(edge, "_LINE_STEP", 0.5 * edge._LINE_STEP)
    fine_flows, fine_windings = _line_curves()
    assert fine_windings == windings
    for (value, crossings), (fine_value, fine) in zip(flows, fine_flows):
        assert fine_value == value
        assert [sign for _, sign in fine] == [sign for _, sign in crossings]
        np.testing.assert_allclose([k for k, _ in fine],
                                   [k for k, _ in crossings], rtol=1e-6,
                                   atol=0.0)
