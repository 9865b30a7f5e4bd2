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
import warnings

import numpy as np
import pytest

from bec import cli, edge, extension
from bec.edge import (
    BandEndpoint,
    DispersionBand,
    dispersion_csv,
    edge_eigenvalues,
    level_flow,
    relative_winding,
    spectral_flow,
    track_bands,
    winding,
)
from bec.errors import (
    BoundaryOfRegularityError,
    ContractViolation,
    InsufficientResolutionError,
    LostBandError,
    NotComparableError,
    NumericalFailure,
)
from bec.extension import vn_unitary_family
from bec.models import build_model
from bec.symbol import GapWindow, find_gap
from test_invariances import _CASES as _TABLE_WINDINGS


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


def test_edge_eigenvalues_name_an_inadmissible_condition(lap_model):
    # A B^dag = 1 + ik is Hermitian at k = 0 only: the condition's unitary
    # U_bc is not unitary at k = 1, and no count is taken there
    from bec.errors import InadmissibleConditionError
    from bec.extension import from_ab

    bad = from_ab([np.eye(1), 1j * np.eye(1)], np.eye(1), label="bad")
    with pytest.raises(InadmissibleConditionError,
                       match=r"bad: A B\^dag not Hermitian at k=1"):
        edge_eigenvalues(bad, lap_model.triple(), lap_model.fiber(1.0),
                         GapWindow(-20.0, 0.0))


# ---------------------------------------------------------------------------
# many columns in one pass of the level unitary


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


def test_columns_match_single_calls_regularized_dirac():
    # columns whose eigenvalues lie in steep stretches of the phase, near
    # the window ends
    model = build_model("regdirac", m=-1.0, eps=0.1)
    out = _columns_match_single_calls(model.make_bc("a", a=2.0),
                                      model.triple("halfline"), model,
                                      "halfline", np.linspace(-12.0, 12.0, 9),
                                      model.declared_gap, 320)
    assert sum(len(col) for col in out) >= 6


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


def _admissible(rows=None):
    """The admissibility check of a synthetic level unitary: it has no
    condition, so every row passes."""


def test_columns_count_two_phases_that_pass_pi_and_0_together(
        monkeypatch, dirac_interface_model):
    # a level unitary whose two eigenphases are equal, 0.5 - 1.5 lam: they
    # pass pi together at lam = -1.76 (arg det V jumps by 4 pi there) and 0
    # together at lam = 1/3, one eigenvalue of multiplicity 2
    from types import SimpleNamespace

    def level_phases(bc, T, F):
        def phases(rows, lams):
            theta = extension._wrap(0.5 - 1.5 * lams)
            return np.stack([theta, theta]), np.zeros(len(rows), dtype=int)
        return phases, _admissible

    monkeypatch.setattr(edge, "_level_phases", level_phases)
    F = dirac_interface_model.fiber_family("interface").stacks([0.3])
    (first, second), = edge._columns(None, SimpleNamespace(dimV=2), F,
                                     [(-2.0, 2.0)], 200)
    assert first == second and abs(first[0] - 1.0 / 3.0) <= 3e-9


def _one_phase_column(monkeypatch, phase, calls=None):
    """Replace the level unitary by the one-phase family phase(lams) ->
    (theta, code); with calls, a batch past that many raises RuntimeError,
    so a sampler that does not end fails instead of hanging."""
    batches = []

    def level_phases(bc, T, F):
        def phases(rows, lams):
            batches.append(len(rows))
            if calls is not None and len(batches) > calls:
                raise RuntimeError("the column sampler does not end")
            theta, code = phase(lams)
            return theta[None, :], code
        return phases, _admissible

    monkeypatch.setattr(edge, "_level_phases", level_phases)
    return batches


@pytest.mark.parametrize("at_seed", [-4e-17, 0.0],
                         ids=["rounds-below-0", "exact-0"])
def test_column_counts_a_phase_on_0_at_a_seed(monkeypatch, dirac_model,
                                              at_seed):
    # theta = lam - seed rises through 0 at a seed energy, where it is
    # at_seed: np.mod puts -4e-17 at 2 pi and the cut frame at 0, so the
    # step after the seed counts it, and its frame value must pass there
    from types import SimpleNamespace

    seed = -1.0 + 2.0 * edge._SEEDS[12]
    _one_phase_column(monkeypatch, lambda lams: (
        np.where(lams == seed, at_seed, lams - seed),
        np.zeros(len(lams), dtype=int)))
    F = dirac_model.fiber_family().stacks([0.3])
    (lam, resid), = edge._columns(None, SimpleNamespace(dimV=1), F,
                                  [(-1.0, 1.0)], 200)[0]
    assert lam == seed and resid <= abs(at_seed)


def test_column_across_a_failing_jump_ends_at_its_sample_cap(monkeypatch,
                                                             dirac_model):
    # one phase that jumps by 2 rad across 0.45 < lam < 0.55, where the
    # basis fails (code 2): no step across the gap gets below the bound, so
    # the column must raise at its cap of evaluated samples
    from types import SimpleNamespace

    batches = _one_phase_column(monkeypatch, lambda lams: (
        np.where(lams < 0.5, 0.1, 2.1),
        np.where((lams > 0.45) & (lams < 0.55), 2, 0)), calls=2000)
    F = dirac_model.fiber_family().stacks([0.3])
    with pytest.raises(InsufficientResolutionError,
                       match=r"at k=0\.3 needs more than 200 phase samples"):
        edge._columns(None, SimpleNamespace(dimV=1), F, [(-1.0, 1.0)], 200)
    # a failing point is never evaluated twice: the gaps between the failing
    # samples double each round
    assert len(batches) <= 10


# the reference conditions of the benchmark's layer probes: (model name and
# parameters, side, boundary family and parameters)
PROBE_CONDITIONS = {
    "laplacian robin K=1 xi=2": (("laplacian", {}), "halfline",
                                 ("robin", {"K": 1.0, "ell": 2.0, "M": 1.0})),
    "dirac m=1 a=2": (("dirac", {"m": 1.0}), "halfline", ("a", {"a": 2.0})),
    "regdirac m=-1 a=2 eps=0.1": (("regdirac", {"m": -1.0, "eps": 0.1}),
                                  "halfline", ("a", {"a": 2.0})),
    "interface decoupled(1,1)": (("dirac", {"m": 1.0, "m_minus": -1.0}),
                                 "interface",
                                 ("decoupled", {"aplus": 1.0, "aminus": 1.0})),
}


@pytest.mark.parametrize("name", sorted(PROBE_CONDITIONS))
def test_detector_rows_do_not_depend_on_their_batch(name):
    # the edge eigenvalues are detected from the level unitary's eigenphases:
    # a batch may split a column and mix columns, which is only sound if
    # every row's (phases, code) is the one it has alone, bit for bit
    (model_name, params), side, (family, kw) = PROBE_CONDITIONS[name]
    model = build_model(model_name, **params)
    gap = model.declared_gap or find_gap(model.symbol, model.gap_around, 8.0)
    ks = np.linspace(-3.0, 3.0, 7)
    phases, _ = extension._level_phases(model.make_bc(family, **kw),
                                        model.triple(side),
                                        model.fiber_family(side).stacks(ks))
    rng = np.random.default_rng(12)
    rows = rng.integers(0, len(ks), edge._SCAN_ROWS)
    lo, hi = np.array([model.scan_window(k, gap) for k in ks]).T[:, rows]
    # mostly inside each column's window, an eighth in the continuum above
    # it and a few at its edge
    t = rng.random(len(rows))
    t[::8] = 1.0 + rng.random(len(t[::8]))
    t[::61] = 1.0
    lams = lo + t * (hi - lo)
    theta, code = phases(rows, lams)
    alone = [phases(rows[i:i + 1], lams[i:i + 1]) for i in range(len(rows))]
    np.testing.assert_array_equal(theta, np.concatenate([a for a, _ in alone],
                                                        axis=1))
    np.testing.assert_array_equal(code, np.concatenate([c for _, c in alone]))
    assert 0 < np.sum(code != 0) < len(rows) // 2


def test_block_scan_batches_stay_within_scan_rows(monkeypatch):
    # one block of a Dirac table row at the numerics of `bec tables`: the
    # seed grids of all its columns go out in full _SCAN_ROWS batches, not
    # one batch per column, and the midpoints and the refinement of every
    # column take a few batches more
    k_window, k_resolution, nl = cli.DIRAC_NUMERICS
    model = build_model("dirac", m=1.0)
    tracker = edge._Tracker(model.make_bc("a", a=2.0), model.triple(),
                            model, model.declared_gap, nl)
    ks = np.linspace(-k_window, k_window, k_resolution)[:nl // 4]
    batches = []
    level = edge._level_phases

    def counted_level(*args):
        phases, admissible = level(*args)

        def counted(rows, lams):
            batches.append(len(rows))
            return phases(rows, lams)
        return counted, admissible

    monkeypatch.setattr(edge, "_level_phases", counted_level)
    cols = tracker.scan(ks)
    seeds = len(ks) * len(edge._SEEDS)
    full, rest = divmod(seeds, edge._SCAN_ROWS)
    assert batches[:full + 1] == [edge._SCAN_ROWS] * full + [rest]
    assert max(batches) <= edge._SCAN_ROWS
    # the branch lam = (3 + 4k)/5 in every column
    assert [len(col) for col in cols] == [1] * len(ks)
    assert np.allclose([col[0][0] for col in cols], (3.0 + 4.0 * ks) / 5.0,
                       rtol=0.0, atol=1e-8)
    # midpoint rounds and regula falsi steps: 11 batches were measured
    assert len(batches) - (full + 1) <= 16


def _with_shape(shape, d):
    """A function of d = x - root with one sign change at d = 0: a line, a
    cubic that flattens at the root, or a kink (two slopes, as the ordered
    eigenphases have where two of them pass 0 together)."""
    if shape == "line":
        return 2.0 * d
    if shape == "cubic":
        return d ** 3 + 1e-3 * d
    return np.where(d < 0.0, 0.1 * d, 3.0 * d)


# three brackets in two columns: column 1 holds two, and its tolerance is far
# below column 0's
_ROOTS = np.array([0.3, -0.2, -0.42])
_OWNER = np.array([0, 1, 1])
_X0 = np.array([-1.0, -0.3, -0.6])
_X1 = np.array([1.0, 0.5, -0.3])
_TOL = np.array([1e-3, 1e-10])


def _illinois_on(shape, brackets, steps=None):
    brackets = np.asarray(brackets)
    roots, owner = _ROOTS[brackets], _OWNER[brackets]

    def f(i, x):
        if steps is not None:
            steps.append(np.bincount(owner[i], minlength=len(_TOL)))
        return _with_shape(shape, x - roots[i])

    x0, x1 = _X0[brackets], _X1[brackets]
    return edge._illinois(f, owner, x0, _with_shape(shape, x0 - roots), x1,
                          _with_shape(shape, x1 - roots), _TOL)


def test_illinois_columns_stop_on_their_own_tolerance():
    # the columns converge after different numbers of steps; each ends where
    # refining it alone ends
    steps = []
    x, v = _illinois_on("kink", [0, 1, 2], steps=steps)
    running = (np.array(steps) > 0).sum(axis=0)
    assert 0 < running[0] < running[1] < edge._ILLINOIS_ITERS
    for c in (0, 1):
        mine = np.nonzero(_OWNER == c)[0]
        xc, vc = _illinois_on("kink", mine)
        assert np.array_equal(x[mine], xc) and np.array_equal(v[mine], vc)


@pytest.mark.parametrize("shape", ["line", "cubic", "kink"])
def test_illinois_brackets_match_alone_and_reach_their_tolerance(shape):
    # the block refinement relies on each bracket's (x, |f|) not depending on
    # the other brackets of its batch
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x, v = _illinois_on(shape, [0, 1, 2])
        for j in range(3):
            xj, vj = _illinois_on(shape, [j])
            assert xj[0] == x[j] and vj[0] == v[j]
    assert np.all(np.abs(x - _ROOTS) <= _TOL[_OWNER])
    assert np.all(v == np.abs(_with_shape(shape, x - _ROOTS)))


@pytest.mark.parametrize("case", ["laplacian robin K=1 xi=1", "dirac m=1 a=2"])
def test_column_count_equals_the_analytic_count(case, lap_model, dirac_model):
    # Robin: lam = k^2 - (1 + k)^2 = -1 - 2k wherever 1 + k > 0, under the
    # window ceiling k^2; two-band family: lam = (3 + 4k)/5 for k < 4/3
    if case.startswith("laplacian"):
        model, gap = lap_model, GapWindow(-np.inf, 0.0)
        bc = model.make_bc("robin", K=1.0, ell=1.0, M=1.0)
        ks = np.linspace(-4.0, 4.0, 41)
        exists, lam = ks > -1.0, -1.0 - 2.0 * ks
    else:
        model, gap = dirac_model, dirac_model.declared_gap
        bc = model.make_bc("a", a=2.0)
        ks = np.linspace(-3.0, 3.0, 31)
        exists, lam = ks < 4.0 / 3.0, (3.0 + 4.0 * ks) / 5.0
    T = model.triple()
    cols = edge._columns(bc, T, model.fiber_family().stacks(ks),
                         [model.scan_window(k, gap) for k in ks], 400)
    assert [len(col) for col in cols] == exists.astype(int).tolist()
    got = np.array([col[0][0] for col in cols if col])
    assert np.all(np.abs(got - lam[exists]) <= 1e-8 * (1.0 + np.abs(got)))


# ---------------------------------------------------------------------------
# synthetic spectral flow


def _band(ks, lams, flat=False):
    b = DispersionBand(np.asarray(ks, dtype=float),
                       np.asarray(lams, dtype=float))
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
    assert sorted(sign for _, sign in both.crossings) == [-1, 1]


def test_spectral_flow_crossing_location_and_sign():
    ks = np.linspace(-1.0, 1.0, 4)
    flow = spectral_flow([_band(ks, 2.0 * ks - 0.5)])
    assert flow.value == 1
    k_star, sign = flow.crossings[0]
    assert abs(k_star - 0.25) < 1e-12 and sign == 1


def test_spectral_flow_exact_sample_on_level():
    ks = np.linspace(-1.0, 1.0, 5)  # middle sample exactly at zero
    flow = spectral_flow([_band(ks, ks)])
    assert flow.value == 1 and len(flow.crossings) == 1
    assert flow.crossings[0][0] == 0.0


def test_spectral_flow_tangency_is_flagged_not_counted():
    ks = np.linspace(-1.0, 1.0, 5)
    flow = spectral_flow([_band(ks, ks * ks)])
    assert flow.value == 0
    assert flow.crossings == []


def test_spectral_flow_flat_band_at_level_is_flagged():
    ks = np.linspace(-1.0, 1.0, 5)
    flow = spectral_flow([_band(ks, np.zeros(5), flat=True)])
    assert flow.value == 0
    assert flow.crossings == []


def test_spectral_flow_nonzero_level():
    ks = np.linspace(-1.0, 1.0, 4)
    flow = spectral_flow([_band(ks, ks)], level=0.5)
    assert flow.value == 1
    assert abs(flow.crossings[0][0] - 0.5) < 1e-12


def _windowed(band, left="exits-k-window", right="exits-k-window"):
    band.left = BandEndpoint(left, band.ks[0], band.lams[0])
    band.right = BandEndpoint(right, band.ks[-1], band.lams[-1])
    return band


def test_spectral_flow_rejects_a_band_leaving_the_window_toward_the_level():
    # lam = 1 + k/2 leaves the window at k = -1 with lam = 0.5, still
    # falling toward the level: a crossing may lie beyond the window
    ks = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(InsufficientResolutionError,
                       match=r"k=-1, lam=0\.5 still moving toward the level"):
        spectral_flow([_windowed(_band(ks, 1.0 + 0.5 * ks))])
    # the same band ending at the bulk, and bands whose window ends move
    # away from the level, are counted
    assert spectral_flow([_windowed(_band(ks, 1.0 + 0.5 * ks),
                                    left="touches-bulk")]).value == 0
    assert spectral_flow([_windowed(_band(ks, ks)),
                          _windowed(_band(ks, 1.0 + ks * ks))]).value == 1
    # the right end, at a nonzero level
    with pytest.raises(InsufficientResolutionError, match=r"k=1, lam=0\.5"):
        spectral_flow([_windowed(_band(ks, 1.0 - 0.5 * ks))], level=-2.0)


# ---------------------------------------------------------------------------
# spectral flow as the Maslov index of the level unitary


def _one_phase_family(monkeypatch, phase):
    """Replace the level unitary by the one-phase family theta = phase(k)."""
    def phases_of(bc, T, F):
        def phases(rows, lams):
            return phase(F.ks[rows])[None, :], np.zeros(len(rows), dtype=int)
        return phases, _admissible
    monkeypatch.setattr(edge, "_level_phases", phases_of)


def test_level_flow_counts_a_phase_through_0_against_its_ends(monkeypatch,
                                                             lap_model):
    # theta = -k / (1 + k^2) falls through 0 at k = 0 and tends to 0 from
    # above at -inf and from below at +inf: det V does not wind, and the
    # crossing is the end term's [theta(-inf)] - [theta(+inf)] = -2 pi
    _one_phase_family(monkeypatch, lambda k: -k / (1.0 + k * k))
    flow = level_flow(None, lap_model.triple(), lap_model.fiber_family(),
                      0.0)
    assert flow.value == -1 and flow.resid <= 1e-12
    (k_star, sign), = flow.crossings
    assert abs(k_star) < 1e-9 and sign == -1
    (phi_minus, shrink_minus), (phi_plus, shrink_plus) = flow.ends
    assert phi_minus == pytest.approx(1e-4) and phi_plus == -phi_minus
    assert shrink_minus == pytest.approx(10.0, rel=1e-3) == shrink_plus


@pytest.mark.parametrize("phase", [
    lambda k: 1.0 / np.maximum(np.abs(k), 1.0) - 5e-4,
    lambda k: 1e-6 * np.abs(k),
    lambda k: np.where(np.abs(k) < edge.K_LIMIT,
                       1.0 / np.maximum(np.abs(k), 1.0), 0.0),
], ids=["changes-sign", "grows", "zero-at-the-end"])
def test_level_flow_rejects_an_end_phase_tending_to_the_level(monkeypatch,
                                                              lap_model,
                                                              phase):
    # on |k| = 1e2, 1e3, 1e4: 9.5e-3, 5e-4, -4e-4; 1e-4, 1e-3, 1e-2; and
    # 1e-2, 1e-3, 0.  Each may be a band tending to the level.  The stage
    # rides in the seed batch, with the seed k = 0, so the phases are
    # finite there (1 / max(|k|, 1)).
    _one_phase_family(monkeypatch, phase)
    with pytest.raises(NumericalFailure,
                       match=r"tends to 0 as k -> -inf .* on \|k\| = 100, "
                             r"1000, 10000"):
        level_flow(None, lap_model.triple(), lap_model.fiber_family(),
                   0.0)


def test_level_flow_on_the_bulk_edge_names_the_momentum(lap_model):
    # the Laplacian's bulk spectrum starts at 0, at k = 0: no sample skipped
    bc = lap_model.make_bc("robin", K=1.0, ell=2.0, M=1.0)
    with pytest.raises(BoundaryOfRegularityError, match=r"at k=\[0\.\]"):
        level_flow(bc, lap_model.triple(), lap_model.fiber_family(), 0.0)


def _turn_between_seeds(monkeypatch):
    """theta = 2 atan((k - k0) / w), which passes 0 once, upward at k0,
    midway between two seeds of the line, and turns through all of 2 pi
    but 0.5 rad between them, as the level unitary; returns k0."""
    s_lim = (2.0 / np.pi) * np.arctan(edge.K_LIMIT)
    seeds = np.tan(0.5 * np.pi * np.linspace(-s_lim, s_lim,
                                             edge._PHASE_SEEDS))
    k_a, k_b = seeds[len(seeds) // 2 + 3: len(seeds) // 2 + 5]
    k0 = 0.5 * (k_a + k_b)
    w = 0.5 * (k_b - k_a) / np.tan(0.25 * (2.0 * np.pi - 0.5))
    _one_phase_family(monkeypatch, lambda k: 2.0 * np.arctan((k - k0) / w))
    return k0


def test_level_flow_refines_a_turn_inside_one_seed_interval(monkeypatch,
                                                            lap_model):
    # the seeds alone read a step of -0.5 rad across the turn and no
    # crossing, below pi and a column's radian alike.  Only refinement
    # under the line's step bound finds the crossing.
    k0 = _turn_between_seeds(monkeypatch)
    flow = level_flow(None, lap_model.triple(), lap_model.fiber_family(),
                      0.0)
    assert flow.value == 1
    (k_star, sign), = flow.crossings
    assert sign == 1 and abs(k_star - k0) < 1e-9


def _bisection_samples(fun, owner, x, cap, where, bound):
    """The reference sampler: `edge._samples` as it was before the 2^j
    split, one midpoint per gap of every step above the limit per round.
    Returns the good samples (curve, x) and the number of rounds."""
    used, rounds = np.zeros(owner.max() + 1, dtype=int), []
    while True:
        used += np.bincount(owner, minlength=len(used))
        assert not np.any(used > cap)
        th, good = fun(owner, x)
        rounds.append((owner, x, good, th))
        curve, at, ok, theta = (np.concatenate(a, axis=-1)
                                for a in zip(*rounds))
        order = np.lexsort((at, curve))
        curve, at, ok, theta = (a[..., order]
                                for a in (curve, at, ok, theta))
        g = np.nonzero(ok)[0]
        inner = curve[g][1:] == curve[g][:-1]
        steps = edge._wrap(np.diff(theta[:, g].sum(axis=0)))
        bad = np.nonzero(inner & (np.abs(steps)
                                  > min(bound, np.pi / len(th))))[0]
        if len(bad) == 0:
            return curve[g], at[g], len(rounds)
        first, span = g[bad], g[bad + 1] - g[bad]
        gaps = np.repeat(first - np.cumsum(span) + span, span) \
            + np.arange(span.sum())
        owner, x = curve[gaps], 0.5 * (at[gaps] + at[gaps + 1])


def _recorded_line_samples(monkeypatch):
    """Wrap `edge._samples`: each call appends (fun, its arguments, its
    result, its number of rounds) to the returned list."""
    runs, samples = [], edge._samples

    def recorded(fun, *args):
        calls = []

        def counted(owner, x):
            calls.append(len(x))
            return fun(owner, x)
        out = samples(counted, *args)
        runs.append((fun, args, out, len(calls)))
        return out

    monkeypatch.setattr(edge, "_samples", recorded)
    return runs


def _split_holds_bisection(fun, args, out, rounds):
    """Every final step is within its limit, the samples hold every
    sample of the bisection reference, and they take no more rounds.
    Returns the reference's rounds."""
    (owner, x, cap, where, bound) = args
    curve, at, theta, steps, inner = out
    assert np.all(np.abs(steps[inner])
                  <= min(bound, np.pi / theta.shape[0]))
    ref_curve, ref_at, ref_rounds = _bisection_samples(fun, owner, x, cap,
                                                       where, bound)
    assert set(zip(ref_curve.tolist(), ref_at.tolist())) \
        <= set(zip(curve.tolist(), at.tolist()))
    assert rounds <= ref_rounds
    return ref_rounds


def test_line_split_cuts_the_turn_in_one_round(monkeypatch, lap_model):
    # the seed step across the turn reads -0.5 rad, twice the line's bound:
    # one cut, as bisection takes; then the steps of up to pi near k0 take
    # 2^j parts at once where bisection halves them round after round
    _turn_between_seeds(monkeypatch)
    runs = _recorded_line_samples(monkeypatch)
    level_flow(None, lap_model.triple(), lap_model.fiber_family(), 0.0)
    (fun, args, out, rounds), = runs
    assert _split_holds_bisection(fun, args, out, rounds) > rounds


def test_cuts_are_the_halvings_of_bisection():
    # [0, 1] into 2^3 parts and [0, 3] into 2^1: the midpoints of the
    # midpoints, and no cut of a part with no floating-point midpoint
    owner, cuts = edge._cuts(np.array([0, 1]), np.array([0.0, 0.0]),
                             np.array([1.0, 3.0]), np.array([3, 1]),
                             lambda c, x: "curve %d" % c)
    assert sorted(zip(owner.tolist(), cuts.tolist())) == \
        [(0, i / 8.0) for i in range(1, 8)] + [(1, 1.5)]
    def where(c, x):
        return "curve %d at %.17g" % (c, x)

    # [1, 1 + 2 ulp] has one midpoint, and its halves none
    one_ulp = np.nextafter(1.0, 2.0)
    two_ulp = np.nextafter(one_ulp, 2.0)
    owner, cuts = edge._cuts(np.array([0]), np.array([1.0]),
                             np.array([two_ulp]), np.array([3]), where)
    assert cuts.tolist() == [one_ulp]
    with pytest.raises(InsufficientResolutionError,
                       match=r"curve 0 at 1 needs a phase step below"):
        edge._cuts(np.array([0]), np.array([1.0]), np.array([one_ulp]),
                   np.array([2]), where)


# Krein batches of the table windings that refine their det U curve: the
# seed batch, which holds the stage, then one per round; every other table
# winding takes the seed batch alone
_KREIN_BATCHES = {
    "laplacian K real, 0<|xi|<1, xi>0": 3,
    "laplacian K real, |xi|>1, xi<0": 2,
    "laplacian K real, |xi|>1, xi>0": 2,
    "regdirac m=+1 a = -2": 2,
    "regdirac m=+1 a = 2": 3,
    "regdirac m=-1 a = 0": 2,
    "regdirac m=-1 a = 2": 3,
}


@pytest.mark.parametrize("name, model, side, bc, ref", _TABLE_WINDINGS,
                         ids=[case[0] for case in _TABLE_WINDINGS])
def test_table_winding_split_and_krein_batches(monkeypatch, name, model,
                                               side, bc, ref):
    # every final step of the det U curve is within the line's bound, the
    # samples hold those of bisection, and the Krein batches are pinned
    T, fam = model.triple(side), model.fiber_family(side)
    batches, full_jets = [], extension._full_jets

    def counted(T, sides, ks, zs):
        batches.append(len(ks))
        return full_jets(T, sides, ks, zs)

    runs = _recorded_line_samples(monkeypatch)
    monkeypatch.setattr(extension, "_full_jets", counted)
    winding(bc, T, fam, bc_ref=ref)
    assert batches[0] == len(extension.K_ENDS) + edge._PHASE_SEEDS
    assert len(batches) == _KREIN_BATCHES.get(name, 1)
    (fun, args, out, rounds), = runs
    _split_holds_bisection(fun, args, out, rounds)


def _failing_rows_at(monkeypatch, k):
    """Give every basis row at the momentum k the code of a root on the
    imaginary axis."""
    full_jets = extension._full_jets

    def failing(T, sides, ks, zs):
        J, code = full_jets(T, sides, ks, zs)
        return J, np.where(np.asarray(ks) == k, extension._ON_AXIS, code)

    monkeypatch.setattr(extension, "_full_jets", failing)


def _not_hermitian_off_0():
    """A B^dag = 1 + ik: Hermitian at k = 0 only."""
    from bec.extension import from_ab

    return from_ab([np.eye(1), 1j * np.eye(1)], np.eye(1), label="bad")


def test_winding_decides_on_the_stage_before_any_seed_row(monkeypatch,
                                                          lap_model,
                                                          dirac_model):
    # the seed k = 0 fails its basis, in the batch that holds the stage:
    # an inadmissible stage momentum and an open loop still come first
    from bec.errors import InadmissibleConditionError

    _failing_rows_at(monkeypatch, 0.0)
    T, fam = lap_model.triple(), lap_model.fiber_family()
    with pytest.raises(InadmissibleConditionError,
                       match=r"bad: A B\^dag not Hermitian at k=100 \("):
        winding(_not_hermitian_off_0(), T, fam)
    with pytest.raises(NotComparableError, match="does not settle"):
        winding(dirac_model.make_bc("a", a=2.0), dirac_model.triple(),
                dirac_model.fiber_family())
    # a condition the stage passes meets the seed's error, naming k = 0
    with pytest.raises(BoundaryOfRegularityError, match=r"at k=\[0\.\]$"):
        winding(lap_model.make_bc("robin", K=1.0, ell=2.0, M=1.0), T, fam)


def test_level_flow_decides_on_the_stage_before_any_seed_row(monkeypatch,
                                                             lap_model):
    from bec.errors import InadmissibleConditionError
    from bec.extension import from_ab

    T, fam = lap_model.triple(), lap_model.fiber_family()
    # A = k, B = 0: iA + B is singular at the seed k = 0 only
    scaled = from_ab([np.zeros((1, 1)), np.eye(1)], np.zeros((1, 1)),
                     label="scaled")
    with pytest.raises(InadmissibleConditionError,
                       match=r"scaled: iA\+B numerically singular at k=0 "):
        level_flow(scaled, T, fam, -1.0)
    with monkeypatch.context() as m:
        # a failing basis on the stage comes before the seed's test
        _failing_rows_at(m, 100.0)
        with pytest.raises(BoundaryOfRegularityError,
                           match=r"at k=\[100\.\]$"):
            level_flow(scaled, T, fam, -1.0)
    with monkeypatch.context() as m:
        # an inadmissible stage momentum comes before a seed's basis
        _failing_rows_at(m, 0.0)
        with pytest.raises(InadmissibleConditionError,
                           match=r"bad: A B\^dag not Hermitian at k=100 \("):
            level_flow(_not_hermitian_off_0(), T, fam, -1.0)

    # an end phase that tends to the level, 1e-6 |k|, comes before a
    # seed's basis; a phase settled at the ends meets it, naming k = 0
    def failing_at_0(phase):
        def phases_of(bc, T, F):
            def phases(rows, lams):
                ks = F.ks[rows]
                return phase(ks)[None, :], np.where(ks == 0.0, 1, 0)
            return phases, _admissible
        return phases_of

    monkeypatch.setattr(edge, "_level_phases",
                        failing_at_0(lambda k: 1e-6 * np.abs(k)))
    with pytest.raises(NumericalFailure, match="tends to 0 as k -> -inf"):
        level_flow(None, T, fam, 0.0)
    monkeypatch.setattr(edge, "_level_phases",
                        failing_at_0(lambda k: 1.0 + 0.0 * k))
    with pytest.raises(BoundaryOfRegularityError, match=r"at k=\[0\.\]$"):
        level_flow(None, T, fam, 0.0)


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


@pytest.mark.parametrize("ell, sf", [(4.0, -1), (-4.0, 1)])
def test_track_bands_exits_gap_low_at_its_own_sample(lap_model, ell, sf):
    # the branch lam = k^2 - (1 + ell k)^2 falls through the heuristic floor
    # -(10 + 10 k^2) of the default gap (-inf, 0) where
    # 5 k^2 + sign(ell) 8 k - 9 = 0, at k = sign(ell) 0.76205
    bands = track_bands(lap_model.make_bc("robin", K=1.0, ell=ell, M=1.0),
                        lap_model.triple(), lap_model, 4.0,
                        k_resolution=161, lam_resolution=160)
    assert spectral_flow(bands).value == sf
    band, = bands
    end, i = (band.right, -1) if ell > 0 else (band.left, 0)
    assert end.kind == "exits-gap-low"
    assert abs(end.k - np.sign(ell) * 0.76205) <= 0.05
    assert end.k == band.ks[i] and end.lam == band.lams[i]


def test_track_bands_band_born_mid_gap_raises(monkeypatch, dirac_model):
    # the first grid column comes back empty, so the band appears at the
    # second one in the middle of the gap: no rule can end it there
    k_window = 3.0
    columns = edge._columns

    def first_column_empty(bc, T, F, windows, nl, xtol=None):
        out = columns(bc, T, F, windows, nl, xtol=xtol)
        if F.ks[0] == -k_window:
            out[0] = []
        return out

    monkeypatch.setattr(edge, "_columns", first_column_empty)
    with pytest.raises(LostBandError, match="band lost mid-gap"):
        track_bands(dirac_model.make_bc("a", a=2.0), dirac_model.triple(),
                    dirac_model, k_window, k_resolution=161,
                    lam_resolution=160)


def _regdirac_lost_band():
    model = build_model("regdirac", m=1.0, eps=0.1)
    return model, model.make_bc("a", a=0.0), model.triple()


def test_tracker_finds_the_regdirac_state_near_minus_one():
    # the state the band tracker loses (next test) is there at k = 0.14
    model, bc, T = _regdirac_lost_band()
    gap = model.declared_gap or find_gap(model.symbol, model.gap_around,
                                         12.0)
    lam = edge._Tracker(bc, T, model, gap, 320).nearest(0.14, -1.0036, 0.01)
    assert lam is not None and abs(lam + 1.0035587) < 1e-6


def test_track_bands_keeps_the_regdirac_band_near_minus_one():
    # at table numerics the band through lam(0.125) = -1.00284 stays in the
    # gap from k = 0.13 to 0.21, where its state is bound: no bulk merge
    # there
    model, bc, T = _regdirac_lost_band()
    bands = track_bands(bc, T, model, 12.0, k_resolution=481,
                        lam_resolution=320)
    ends = [end for band in bands for end in (band.left, band.right)]
    assert not [end for end in ends
                if 0.13 < end.k < 0.21 and end.kind == "touches-bulk"]


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


@pytest.mark.parametrize("name, params, family, kw, ref", [
    ("dirac", {"m": 1.0}, "a", {"a": 2.0}, ("a", {"a": 1.0})),
    ("regdirac", {"m": -1.0, "eps": 0.1}, "a", {"a": 2.0},
     ("dirichlet", {})),
], ids=["dirac", "regdirac"])
def test_windings_do_not_read_the_k_window(name, params, family, kw, ref):
    # the keyword stays only for the callers in perfbench/jobs.py; ROADMAP
    # item 2 removes it
    model = build_model(name, **params)
    T, fam = model.triple(), model.fiber_family()
    bc, bc_ref = model.make_bc(family, **kw), model.make_bc(ref[0], **ref[1])
    for k_window in (4.0, 12.0):
        assert winding(bc, T, fam, k_window=k_window, bc_ref=bc_ref) \
            == winding(bc, T, fam, bc_ref=bc_ref)
        assert relative_winding(bc, bc_ref, T, fam, k_window=k_window) \
            == relative_winding(bc, bc_ref, T, fam)


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


def test_unimodular_check_rejects_non_finite_samples():
    # a nan deviation compares false against the bound; a zero det W(i)
    # gives an infinite or nan det U sample
    edge._check_unimodular(np.array([1.0, 1j]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ContractViolation, match="non-finite"):
            edge._check_unimodular(np.array([1.0, bad]))


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
            Fk = model.fiber(k, side)
            assert np.max(np.abs(Uk - vn_unitary(bc, T, Fk))) < 1e-10


@pytest.mark.parametrize("fixture, side, cond, ref", _UNITARY_CASES)
def test_relative_unitaries_share_one_krein_family(request, monkeypatch,
                                                   fixture, side, cond, ref):
    model = request.getfixturevalue(fixture)
    T, fam = model.triple(side), model.fiber_family(side)
    bc, bc_ref = model.make_bc(cond[0], **cond[1]), model.make_bc(ref[0],
                                                                  **ref[1])
    ks = extension.K_ENDS
    # two independent families, as each condition computed its own before
    two = (vn_unitary_family(bc, T, fam, ks)
           @ np.linalg.inv(vn_unitary_family(bc_ref, T, fam, ks)))
    calls = []
    full_jets = extension._full_jets

    def counted(T, sides, ks, zs):
        calls.append((len(ks), complex(zs[0])))
        return full_jets(T, sides, ks, zs)

    monkeypatch.setattr(extension, "_full_jets", counted)
    shared = extension._end_unitaries(bc, T, fam, bc_ref=bc_ref)
    # one jet batch of the stage's momenta, at z = i, shared by both
    # conditions; W(-i) takes Q(-i) = Q(i)^dag
    assert calls == [(len(ks), 1j)]
    assert np.array_equal(np.linalg.det(shared), np.linalg.det(two))


@pytest.mark.parametrize("fixture, side, cond, ref", _UNITARY_CASES)
def test_relative_winding_builds_one_jet_batch_per_det_curve_evaluation(
        request, monkeypatch, fixture, side, cond, ref):
    model = request.getfixturevalue(fixture)
    T, fam = model.triple(side), model.fiber_family(side)
    bc, bc_ref = model.make_bc(cond[0], **cond[1]), model.make_bc(ref[0],
                                                                  **ref[1])
    batches, evaluations = [], []
    full_jets, unitary_dets = extension._full_jets, edge._unitary_dets

    def counted_jets(T, sides, ks, zs):
        batches.append((len(ks), set(np.asarray(zs).tolist())))
        return full_jets(T, sides, ks, zs)

    def counted_dets(bc, T, fam, ks, bc_ref=None, stage=None):
        evaluations.append(len(ks))
        return unitary_dets(bc, T, fam, ks, bc_ref=bc_ref, stage=stage)

    monkeypatch.setattr(extension, "_full_jets", counted_jets)
    monkeypatch.setattr(edge, "_unitary_dets", counted_dets)
    relative_winding(bc, bc_ref, T, fam)
    # the seed batch holds the six momenta of the large-momentum stage
    # ahead of the seeds; then one batch per det-curve call
    assert evaluations[0] == len(extension.K_ENDS) + edge._PHASE_SEEDS
    assert batches == [(n, {1j}) for n in evaluations]


@pytest.mark.parametrize("fixture, side, cond, ref", _UNITARY_CASES)
def test_flow_end_certificate_builds_one_jet_batch_on_the_stage_momenta(
        request, monkeypatch, fixture, side, cond, ref):
    model = request.getfixturevalue(fixture)
    T, fam = model.triple(side), model.fiber_family(side)
    bc = model.make_bc(cond[0], **cond[1])
    alone = edge._phases_at(bc, T, fam, extension.K_ENDS, model.fiducial_E)
    batches, certificate = [], []
    full_jets, end_margins = extension._full_jets, edge._end_margins

    def counted_jets(T, sides, ks, zs):
        batches.append((tuple(ks), set(np.asarray(zs).tolist())))
        return full_jets(T, sides, ks, zs)

    def counted_margins(th, level):
        certificate.append((len(batches), th))
        return end_margins(th, level)

    monkeypatch.setattr(extension, "_full_jets", counted_jets)
    monkeypatch.setattr(edge, "_end_margins", counted_margins)
    flow = level_flow(bc, T, fam, model.fiducial_E)
    # the seed batch at the real level holds K_LADDER on each side ahead of
    # the seeds, and the certificate reads those six rows of it, bit for
    # bit the phases of the stage alone; then one batch per round
    (ks, levels), = batches[:1]
    assert ks[:6] == extension.K_ENDS and len(ks) == 6 + edge._PHASE_SEEDS
    assert levels == {model.fiducial_E}
    (seen, th), = certificate
    assert seen == 1 and np.array_equal(th, alone)
    assert len(flow.ends) == 2


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
                           match=r"bad: A B\^dag not Hermitian at k=100 \("):
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
    from bec.extension import green_identity_residual, vn_unitary
    from conftest import decaying_basis

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
        decaying_basis(F, 1j, "right")
    assert edge_eigenvalues(bc, T, F, GapWindow(-5.0, 0.0)) == []
