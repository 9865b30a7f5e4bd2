"""Tests of the edge layer: per-momentum edge eigenvalues, band tracking,
spectral flow, and windings of the von Neumann unitaries.

Closed forms used as oracles
----------------------------
* Robin-type family (K + l k) psi(0) = M psi'(0) on the scalar half-plane
  model: one edge branch lam = k^2 - (K + l k)^2 wherever K + l k > 0.
* half-line two-band family psi1(0) = a psi2(0), mass m: edge branch
  lam = ((a^2-1) m + 2 a k) / (a^2 + 1) on the half-line where it decays;
  it crosses zero at k0 = (1-a^2) m / (2a) with slope 2a/(a^2+1) and merges
  with the bulk bands at k* where |lam| = sqrt(k*^2 + m^2).
* transparent interface with masses (1, -1): single branch lam = k.
"""
import numpy as np
import pytest

from bec import edge, extension
from bec.edge import (
    DispersionBand,
    dispersion_csv,
    edge_eigenvalues,
    relative_winding,
    spectral_flow,
    track_bands,
    vn_unitary_family,
    winding,
)
from bec.errors import ContractViolation, NotComparableError
from bec.models import build_model
from bec.symbol import GapWindow


# ---------------------------------------------------------------------------
# single-momentum edge eigenvalues


def test_edge_eigenvalue_robin_family(lap_model):
    T = lap_model.triple("halfline")
    bc = lap_model.make_bc("robin", K=1.0, ell=2.0, M=1.0)
    out = edge_eigenvalues(bc, T, lap_model.fiber(1.0),
                           GapWindow(-20.0, 0.0), lam_resolution=300)
    assert len(out) == 1
    lam, resid = out[0]
    assert abs(lam + 8.0) < 1e-7
    assert resid < 1e-8


def test_edge_eigenvalue_robin_without_dispersion_term(lap_model):
    T = lap_model.triple("halfline")
    bc = lap_model.make_bc("robin", K=1.0, ell=0.0, M=1.0)
    out = edge_eigenvalues(bc, T, lap_model.fiber(0.5),
                           GapWindow(-20.0, 0.0), lam_resolution=300)
    assert len(out) == 1
    assert abs(out[0][0] + 0.75) < 1e-7


def test_edge_eigenvalue_two_band_family(dirac_model):
    T = dirac_model.triple("halfline")
    out = edge_eigenvalues(dirac_model.make_bc("a", a=2.0), T,
                           dirac_model.fiber(0.25),
                           dirac_model.declared_gap, lam_resolution=200)
    assert len(out) == 1
    assert abs(out[0][0] - 0.8) < 1e-7
    out = edge_eigenvalues(dirac_model.make_bc("a", a=1.0), T,
                           dirac_model.fiber(0.5),
                           dirac_model.declared_gap, lam_resolution=200)
    assert len(out) == 1
    assert abs(out[0][0] - 0.5) < 1e-7


def test_edge_eigenvalue_absent_for_dirichlet(lap_model):
    T = lap_model.triple("halfline")
    out = edge_eigenvalues(lap_model.make_bc("dirichlet"), T,
                           lap_model.fiber(1.0), GapWindow(-20.0, 0.0),
                           lam_resolution=300)
    assert out == []


def test_edge_eigenvalue_transparent_interface(dirac_interface_model):
    model = dirac_interface_model
    T = model.triple("interface")
    out = edge_eigenvalues(model.make_bc("transparent"), T,
                           model.fiber(0.3, "interface"),
                           model.declared_gap, lam_resolution=200)
    assert len(out) == 1
    assert abs(out[0][0] - 0.3) < 1e-8


def test_edge_eigenvalue_multiplicity_two_for_coinciding_branches(
        dirac_interface_model):
    # equal families on both half lines carry coinciding branches; the
    # column must report the eigenvalue twice
    model = dirac_interface_model
    T = model.triple("interface")
    bc = model.make_bc("decoupled", aplus=1.0, aminus=1.0)
    out = edge_eigenvalues(bc, T, model.fiber(0.3, "interface"),
                           model.declared_gap, lam_resolution=200)
    assert len(out) == 2
    assert abs(out[0][0] - 0.3) < 1e-8
    assert abs(out[1][0] - 0.3) < 1e-8


# ---------------------------------------------------------------------------
# many columns in one detector pass


def _columns_match_single_calls(bc, T, model, side, ks, gap, nl):
    fam = model.fiber_family(side)
    windows = [model.scan_window(k, gap) for k in ks]
    together = edge._columns(bc, T, fam.stacks(ks), windows, nl)
    alone = [edge._columns(bc, T, fam.stacks([k]), [w], nl)[0]
             for k, w in zip(ks, windows)]
    assert together == alone
    return together


def test_columns_match_single_calls_robin_unbounded_window(lap_model):
    # the gap is unbounded below: the window is clipped to the model's depth
    T = lap_model.triple("halfline")
    bc = lap_model.make_bc("robin", K=1.0, ell=1.0, M=1.0)
    out = _columns_match_single_calls(bc, T, lap_model, "halfline",
                                      np.linspace(-4.0, 4.0, 9),
                                      GapWindow(-np.inf, 0.0), 200)
    assert sum(len(col) for col in out) >= 4


def test_columns_match_single_calls_two_band_family(dirac_model):
    out = _columns_match_single_calls(dirac_model.make_bc("a", a=2.0),
                                      dirac_model.triple("halfline"),
                                      dirac_model, "halfline",
                                      np.linspace(-3.0, 3.0, 9),
                                      dirac_model.declared_gap, 200)
    assert sum(len(col) for col in out) >= 4


def test_columns_match_single_calls_with_retry_pass(monkeypatch):
    model = build_model("regdirac", m=-1.0, eps=0.1)
    tols = []
    golden = edge._golden

    def counted(rel, owner, a, b, tol):
        tols.append(tol)
        return golden(rel, owner, a, b, tol)

    monkeypatch.setattr(edge, "_golden", counted)
    _columns_match_single_calls(model.make_bc("a", a=2.0),
                                model.triple("halfline"), model, "halfline",
                                np.linspace(-12.0, 12.0, 9),
                                model.declared_gap, 320)
    # some dips stop just above the acceptance bar and are refined again at
    # the machine-level tolerance
    assert any(np.all(t < 1e-11) for t in tols)


def test_columns_match_single_calls_with_multiplicity(dirac_interface_model):
    model = dirac_interface_model
    bc = model.make_bc("decoupled", aplus=1.0, aminus=1.0)
    out = _columns_match_single_calls(bc, model.triple("interface"), model,
                                      "interface", np.linspace(-2.0, 2.0, 9),
                                      model.declared_gap, 200)
    assert any(len(col) == 2 for col in out)


def test_columns_skip_empty_and_unbounded_windows(dirac_model):
    T = dirac_model.triple("halfline")
    bc = dirac_model.make_bc("a", a=2.0)
    ks = [0.25] * 4
    F = dirac_model.fiber_family().stacks(ks)
    good = (-0.999, 0.999)
    out = edge._columns(bc, T, F,
                        [(0.3, 0.3), (-np.inf, 0.0), good, (0.5, -0.5)], 200)
    assert out[0] == [] and out[1] == [] and out[3] == []
    assert out[2] == edge._columns(bc, T, F[[2]], [good], 200)[0]
    assert abs(out[2][0][0] - 0.8) < 1e-7


def _dips_by_loop(r):
    cand = []
    for i in range(len(r)):
        left = r[i - 1] if i > 0 else np.inf
        right = r[i + 1] if i + 1 < len(r) else np.inf
        if r[i] < edge._DIP_FRACTION and r[i] <= left and r[i] <= right:
            cand.append(i)
    return cand


def test_dips_match_scan_loop():
    rng = np.random.default_rng(3)
    levels = np.array([0.0, 1e-9, 0.3, 0.59, 0.6, 0.61, 2.0, np.inf])
    for n in (1, 2, 3, 7, 50):
        for _ in range(40):
            # few distinct values, so plateaus and ties are common
            r = rng.choice(levels, size=n)
            assert edge._dips(r).tolist() == _dips_by_loop(r)
    r = rng.random(400)
    assert edge._dips(r).tolist() == _dips_by_loop(r)


def _parabolas(centres, steps):
    def rel(rows, xs):
        steps.append(np.bincount(rows, minlength=len(centres)))
        return (xs - centres[rows]) ** 2
    return rel


def test_golden_columns_stop_on_their_own_tolerance():
    # two columns of one batch with different tolerances converge after
    # different numbers of steps; each ends where refining it alone ends
    centres = np.array([0.3, -0.2])
    owner = np.array([0, 1, 1])
    a = np.array([-1.0, -0.5, -0.4])
    b = np.array([1.0, 0.5, 0.0])
    tol = np.array([1e-3, 1e-10])
    steps = []
    x, v = edge._golden(_parabolas(centres, steps), owner, a, b, tol)
    running = (np.array(steps[:-1]) > 0).sum(axis=0)
    assert 0 < running[0] < running[1]
    for c in (0, 1):
        mine = owner == c
        xc, vc = edge._golden(_parabolas(centres[c:c + 1], []),
                              np.zeros(mine.sum(), dtype=int),
                              a[mine], b[mine], tol[c:c + 1])
        assert np.array_equal(x[mine], xc) and np.array_equal(v[mine], vc)
    assert np.all(np.abs(x - centres[owner]) < 1e-3)


# ---------------------------------------------------------------------------
# synthetic spectral flow


def _band(ks, lams, flat=False):
    b = DispersionBand(np.asarray(ks, dtype=float),
                       np.asarray(lams, dtype=float),
                       np.zeros(len(ks)), GapWindow(-1.0, 1.0))
    b.flat = flat
    return b


def test_spectral_flow_up_and_down_crossings():
    ks = np.linspace(-1.0, 1.0, 4)  # no sample exactly at zero
    up = _band(ks, ks)
    down = _band(ks, -ks)
    assert spectral_flow([up]).value == 1
    assert spectral_flow([down]).value == -1
    both = spectral_flow([up, down])
    assert both.value == 0
    assert len(both.crossings) == 2
    assert not both.flagged


def test_spectral_flow_crossing_location_and_sign():
    ks = np.linspace(-1.0, 1.0, 4)
    flow = spectral_flow([_band(ks, 2.0 * ks - 0.5)])
    assert flow.value == 1
    k_star, sign = flow.crossings[0]
    assert abs(k_star - 0.25) < 1e-12 and sign == 1


def test_spectral_flow_exact_sample_on_level():
    ks = np.linspace(-1.0, 1.0, 5)  # middle sample exactly at zero
    flow = spectral_flow([_band(ks, ks)])
    assert flow.value == 1 and not flow.flagged
    assert flow.crossings[0][0] == 0.0


def test_spectral_flow_tangency_is_flagged_not_counted():
    ks = np.linspace(-1.0, 1.0, 5)
    flow = spectral_flow([_band(ks, ks * ks)])
    assert flow.value == 0
    assert flow.flagged


def test_spectral_flow_flat_band_at_level_is_flagged():
    ks = np.linspace(-1.0, 1.0, 5)
    flow = spectral_flow([_band(ks, np.zeros(5), flat=True)])
    assert flow.value == 0
    assert flow.flagged


def test_spectral_flow_nonzero_level():
    ks = np.linspace(-1.0, 1.0, 4)
    flow = spectral_flow([_band(ks, ks)], level=0.5)
    assert flow.value == 1
    assert abs(flow.crossings[0][0] - 0.5) < 1e-12


# ---------------------------------------------------------------------------
# band tracking


def test_track_bands_two_band_dispersion(dirac_model):
    bands = track_bands(dirac_model.make_bc("a", a=2.0),
                        dirac_model.triple("halfline"), dirac_model, 3.0,
                        gap=dirac_model.declared_gap,
                        k_resolution=161, lam_resolution=160)
    assert len(bands) == 1
    band = bands[0]
    # the branch follows lam = (3 + 4k)/5
    sel = slice(10, -10)
    assert np.max(np.abs(band.lams[sel] - (3.0 + 4.0 * band.ks[sel]) / 5.0)) \
        < 1e-7
    # the eigenvalue persists below the gap all the way to the window edge ...
    assert band.left.kind == "exits-k-window"
    assert abs(band.left.k + 3.0) < 1e-12
    assert abs(band.left.lam + 1.8) < 1e-6
    # ... and merges with the bulk at k* = 4/3, lam* = 5/3
    assert band.right.kind == "touches-bulk"
    assert abs(band.right.k - 4.0 / 3.0) < 1e-6
    assert abs(band.right.lam - 5.0 / 3.0) < 1e-5
    flow = spectral_flow(bands)
    assert flow.value == 1
    assert abs(flow.crossings[0][0] + 0.75) < 1e-6


def test_track_bands_stable_under_resolution_doubling(dirac_model):
    coarse = track_bands(dirac_model.make_bc("a", a=2.0),
                         dirac_model.triple("halfline"), dirac_model, 3.0,
                         gap=dirac_model.declared_gap,
                         k_resolution=161, lam_resolution=160)
    fine = track_bands(dirac_model.make_bc("a", a=2.0),
                       dirac_model.triple("halfline"), dirac_model, 3.0,
                       gap=dirac_model.declared_gap,
                       k_resolution=321, lam_resolution=160)
    assert len(coarse) == len(fine) == 1
    assert spectral_flow(coarse).value == spectral_flow(fine).value


def test_track_bands_reference_family_flat_branch(dirac_model):
    # a=1: the branch lam = k crosses the whole gap
    bands = track_bands(dirac_model.make_bc("a", a=1.0),
                        dirac_model.triple("halfline"), dirac_model, 3.0,
                        gap=dirac_model.declared_gap,
                        k_resolution=161, lam_resolution=160)
    assert len(bands) == 1
    assert spectral_flow(bands).value == 1
    sel = slice(5, -5)
    assert np.max(np.abs(bands[0].lams[sel] - bands[0].ks[sel])) < 1e-7


def test_track_bands_rejects_bulk_only_model(shallow_model):
    from bec.extension import from_ab

    with pytest.raises(ContractViolation):
        track_bands(from_ab(np.eye(3), np.zeros((3, 3))), None,
                    shallow_model, 2.0)


def test_track_bands_rejects_condition_of_wrong_size(dirac_model):
    bc = dirac_model.bc_families["transparent"]()
    with pytest.raises(ContractViolation,
                       match=r"2x2 condition does not fit the halfline"):
        track_bands(bc, dirac_model.triple(), dirac_model, 2.0,
                    k_resolution=21, lam_resolution=40)
    with pytest.raises(ContractViolation,
                       match=r"2x2 condition does not fit the halfline"):
        winding(bc, dirac_model.triple(), dirac_model.fiber_family())


def test_dispersion_csv_format_and_determinism(dirac_model):
    def run():
        bands = track_bands(dirac_model.make_bc("a", a=1.0),
                            dirac_model.triple("halfline"), dirac_model, 2.0,
                            gap=dirac_model.declared_gap,
                            k_resolution=81, lam_resolution=120)
        return dispersion_csv(bands)

    text = run()
    lines = text.strip().split("\n")
    assert lines[0] == "band_id,k,lambda"
    assert len(lines) > 30
    first = lines[1].split(",")
    assert first[0] == "0"
    assert abs(float(first[2]) - float(first[1])) < 1e-7  # lam = k branch
    assert run() == text  # byte-identical rerun


# ---------------------------------------------------------------------------
# windings


def test_winding_robin_family(lap_model):
    bc = lap_model.make_bc("robin", K=1.0, ell=2.0, M=1.0)
    value, resid = winding(bc, lap_model.triple("halfline"),
                           lap_model.fiber_family(), k_window=8.0)
    assert value == -1
    assert resid < 1e-6


def test_winding_sign_flips_with_dispersion_slope(lap_model):
    bc = lap_model.make_bc("robin", K=1.0, ell=-2.0, M=1.0)
    value, _ = winding(bc, lap_model.triple("halfline"),
                       lap_model.fiber_family(), k_window=8.0)
    assert value == 1


def test_winding_zero_for_bound_state_free_family(lap_model):
    bc = lap_model.make_bc("robin", K=-1.0, ell=1.0, M=1.0)
    value, resid = winding(bc, lap_model.triple("halfline"),
                           lap_model.fiber_family(), k_window=8.0)
    assert value == 0 and resid < 1e-6


def test_relative_winding_antisymmetry_and_additivity(lap_model):
    T = lap_model.triple("halfline")
    fam = lap_model.fiber_family()
    b1 = lap_model.make_bc("robin", K=1.0, ell=2.0, M=1.0)
    b2 = lap_model.make_bc("dirichlet")
    b3 = lap_model.make_bc("robin", K=1.0, ell=-2.0, M=1.0)
    w12, _ = relative_winding(b1, b2, T, fam, k_window=8.0)
    w21, _ = relative_winding(b2, b1, T, fam, k_window=8.0)
    w23, _ = relative_winding(b2, b3, T, fam, k_window=8.0)
    w13, _ = relative_winding(b1, b3, T, fam, k_window=8.0)
    assert w12 == -w21
    assert w13 == w12 + w23
    assert w12 == -1  # same as the absolute winding: the reference is inert


def test_raw_winding_undefined_for_two_band_family(dirac_model):
    # the unitary has different limits at k -> +-infinity, so the loop
    # through infinity does not close without a reference condition
    with pytest.raises(NotComparableError):
        winding(dirac_model.make_bc("a", a=2.0),
                dirac_model.triple("halfline"), dirac_model.fiber_family(),
                k_window=8.0)


def test_relative_winding_two_band_family(dirac_model):
    T = dirac_model.triple("halfline")
    fam = dirac_model.fiber_family()
    w, resid = relative_winding(dirac_model.make_bc("a", a=2.0),
                                dirac_model.make_bc("a", a=1.0), T, fam)
    assert w == 0 and resid < 1e-6
    w, _ = relative_winding(dirac_model.make_bc("a", a=-2.0),
                            dirac_model.make_bc("a", a=1.0), T, fam)
    assert w == -1


def test_unitary_family_determinants_unimodular(lap_model, dirac_model):
    ks = np.linspace(-30.0, 30.0, 41)
    for model, bc in ((lap_model,
                       lap_model.make_bc("robin", K=1.0, ell=2.0, M=1.0)),
                      (dirac_model, dirac_model.make_bc("a", a=2.0))):
        U = vn_unitary_family(bc, model.triple("halfline"),
                              model.fiber_family(), ks)
        dets = np.linalg.det(U)
        assert np.max(np.abs(np.abs(dets) - 1.0)) < 1e-8


_UNITARY_CASES = [
    ("lap_model", "halfline", ("robin", {"K": 1.0, "ell": 2.0, "M": 1.0}),
     ("dirichlet", {})),
    ("dirac_model", "halfline", ("a", {"a": -2.0}), ("a", {"a": 1.0})),
    ("regdirac_model", "halfline", ("a", {"a": 2.0}), ("dirichlet", {})),
    ("dirac_interface_model", "interface",
     ("decoupled", {"aplus": 1.0, "aminus": 1.0}), ("transparent", {})),
]


@pytest.mark.parametrize("fixture, side, cond, ref", _UNITARY_CASES)
def test_unitary_family_matches_per_point_unitary(request, fixture, side,
                                                  cond, ref):
    from bec.extension import vn_unitary

    model = request.getfixturevalue(fixture)
    T, fam = model.triple(side), model.fiber_family(side)
    ks = [-1e4, -50.0, -1.3, 0.0, 0.7, 2.0, 50.0, 1e4]
    for family, kw in (cond, ref):
        bc = model.make_bc(family, **kw)
        U = vn_unitary_family(bc, T, fam, ks)
        for k, Uk in zip(ks, U):
            assert np.max(np.abs(Uk - vn_unitary(bc, T, fam(k)))) < 1e-10


@pytest.mark.parametrize("fixture, side, cond, ref", _UNITARY_CASES)
def test_relative_unitaries_share_one_krein_family(request, monkeypatch,
                                                   fixture, side, cond, ref):
    model = request.getfixturevalue(fixture)
    T, fam = model.triple(side), model.fiber_family(side)
    bc, bc_ref = model.make_bc(cond[0], **cond[1]), model.make_bc(ref[0],
                                                                  **ref[1])
    ks = np.tan(0.5 * np.pi * np.linspace(-0.999, 0.999, 257))
    # two independent families, as each condition computed its own before
    two = (vn_unitary_family(bc, T, fam, ks)
           @ np.linalg.inv(vn_unitary_family(bc_ref, T, fam, ks)))
    calls = []
    krein = extension._krein_family

    def counted(T, F):
        calls.append(len(F.ks))
        return krein(T, F)

    monkeypatch.setattr(extension, "_krein_family", counted)
    shared = extension._unitaries(bc, T, fam, ks, bc_ref=bc_ref)
    assert calls == [len(ks)]
    assert np.array_equal(np.linalg.det(shared), np.linalg.det(two))


def _vanishing_top_model(lap_model):
    # the coefficient (1 + k) of d^2/dy^2 vanishes at k = -1: the stack
    # keeps order 2 there and the basis fails at exactly that momentum
    from bec.models import ModelDescriptor
    from bec.symbol import Symbol

    S = Symbol(1, {(2, 0): [[1.0]], (0, 2): [[1.0]], (1, 2): [[1.0]]})
    return ModelDescriptor("vanishing-top", {}, S,
                           triples={"halfline": lap_model.triple()})


def test_winding_checks_both_conditions_at_the_ends(lap_model):
    # A B^dag = 1 + ik is Hermitian at k = 0 only
    from bec.errors import InadmissibleConditionError
    from bec.extension import from_ab

    T, fam = lap_model.triple(), lap_model.fiber_family()
    good = lap_model.make_bc("robin", K=1.0, ell=2.0, M=1.0)
    bad = from_ab([np.eye(1), 1j * np.eye(1)], np.eye(1), label="bad")
    for bc, ref in ((bad, None), (good, bad)):
        with pytest.raises(InadmissibleConditionError,
                           match=r"bad: A B\^dag not Hermitian at k=-10000"):
            winding(bc, T, fam, k_window=8.0, bc_ref=ref)


def test_unitary_family_reports_vanishing_top_coefficient(lap_model):
    from bec.errors import NumericalFailure

    model = _vanishing_top_model(lap_model)
    T, fam = model.triple(), model.fiber_family()
    bc = lap_model.make_bc("robin", K=1.0, ell=0.0, M=1.0)
    with pytest.raises(NumericalFailure, match=r"k=\[-1\.\]"):
        vn_unitary_family(bc, T, fam, [0.5, -1.0, 2.0])
    with pytest.raises(NumericalFailure, match=r"k=\[-1\.\]"):
        vn_unitary_family(bc, T, fam, [-1.0, 0.5])
    U = vn_unitary_family(bc, T, fam, [0.5, 2.0])
    assert np.max(np.abs(np.abs(np.linalg.det(U)) - 1.0)) < 1e-10


def test_per_point_paths_report_vanishing_top_coefficient(lap_model):
    # the fiber at one momentum keeps the stack's order, so every per-point
    # path fails as the family does, naming the momentum
    from bec.errors import NumericalFailure
    from bec.extension import (deficiency_basis, green_identity_residual,
                               vn_unitary)

    model = _vanishing_top_model(lap_model)
    T, F = model.triple(), model.fiber(-1.0)
    bc = lap_model.make_bc("robin", K=1.0, ell=0.0, M=1.0)
    match = r"vanishing leading coefficient.* at k=\[-1\.\]"
    with pytest.raises(NumericalFailure, match=match):
        vn_unitary_family(bc, T, model.fiber_family(), [-1.0])
    with pytest.raises(NumericalFailure, match=match):
        vn_unitary(bc, T, F)
    with pytest.raises(NumericalFailure, match=match):
        green_identity_residual(T, F)
    with pytest.raises(NumericalFailure, match=match):
        deficiency_basis(F, 1j, "right")
    assert edge_eigenvalues(bc, T, F, GapWindow(-5.0, 0.0)) == []
