"""The entry-wise deficiency-basis and level-unitary kernel against its
stacked form (`stacked_reference`), row by row.

The bases (exponents, amplitudes, jets and reason codes) agree bit for bit.
The level unitary's eigenphases come from entry-wise sums and a closed form
for dimV <= 2, the stacked ones from `@` products, inverses and LAPACK's
eigenvalues; both round differently, so the eigenvalues e^{i theta} agree
to a few units of the last place, a bound fixed below from the dtype.
"""
import numpy as np
import pytest

import stacked_reference as stacked
from bec import extension
from bec.extension import _basis_batch
from bec.models import build_model
from bec.symbol import find_gap

EPS = np.finfo(float).eps

# (model name, parameters, side, boundary family, parameters, k window)
CONDITIONS = {
    "laplacian robin": ("laplacian", {}, "halfline",
                        "robin", {"K": 1.0, "ell": 1.0, "M": 1.0}, 8.0),
    "dirac a": ("dirac", {"m": 1.0}, "halfline", "a", {"a": 2.0}, 6.0),
    "regdirac a": ("regdirac", {"m": -1.0, "eps": 0.1}, "halfline",
                   "a", {"a": 2.0}, 12.0),
    "regdirac dirichlet": ("regdirac", {"m": 1.0, "eps": 0.1}, "halfline",
                           "dirichlet", {}, 12.0),
    "interface transparent": ("dirac", {"m": 1.0, "m_minus": -1.0},
                              "interface", "transparent", {}, 6.0),
    "interface decoupled": ("dirac", {"m": 1.0, "m_minus": -1.0},
                            "interface", "decoupled",
                            {"aplus": 1.0, "aminus": 1.0}, 6.0),
}


def _rows(name, seed):
    """(model, triple, condition, momenta, spectral points): seeded random
    rows with real energies in each column's scan window, a few at its
    edges and in the continuum above it, and z = +-i."""
    model_name, params, side, family, kw, k_window = CONDITIONS[name]
    model = build_model(model_name, **params)
    gap = model.declared_gap or find_gap(model.symbol, model.gap_around,
                                         k_window)
    rng = np.random.default_rng(seed)
    ks = np.concatenate([rng.uniform(-k_window, k_window, 300),
                         [0.0, 1e2, -1e3, 1e4]])
    lo, hi = np.array([model.scan_window(k, gap) for k in ks]).T
    t = rng.random(len(ks))
    t[::7] = 1.0 + rng.random(len(t[::7]))
    t[::53] = 0.0
    t[::59] = 1.0
    zs = (lo + t * (hi - lo)).astype(complex)
    zs[::5] = 1j
    zs[1::5] = -1j
    return (model, model.triple(side), model.make_bc(family, **kw), ks, zs)


def _assert_same_basis(Ds, ks, zs, side):
    expect = (Ds.shape[1] - 1) * Ds.shape[2] // 2
    got = _basis_batch(Ds, ks, zs, side, expect)
    want = stacked._basis_batch(Ds, ks, zs, side, expect)
    for name, a, b in zip(("mus", "phis", "jets", "code"), got, want):
        assert a.shape == b.shape, name
        assert np.array_equal(a, b, equal_nan=True), name
    return got[3]


@pytest.mark.parametrize("name", sorted(CONDITIONS))
def test_bases_equal_the_stacked_kernel_bit_for_bit(name):
    model, T, _, ks, zs = _rows(name, 21)
    F = model.fiber_family(T.side).stacks(ks)
    codes = [_assert_same_basis(Ds, ks, zs, side)
             for Ds, side in zip(F.sides, ("right", "left"))]
    # good rows and failing ones (energies in the continuum) are both seen
    assert all(np.any(c == 0) and np.any(c != 0) for c in codes)
    # and an empty batch has the same (empty) shapes
    for Ds, side in zip(F.sides, ("right", "left")):
        _assert_same_basis(Ds[:0], ks[:0], zs[:0], side)


@pytest.mark.parametrize("name", sorted(CONDITIONS))
def test_level_phases_equal_the_stacked_level_phases(name):
    model, T, bc, ks, zs = _rows(name, 22)
    real = zs.imag == 0.0
    F = model.fiber_family(T.side).stacks(ks[real])
    rows, lams = np.arange(np.sum(real)), zs[real].real
    theta, code = extension._level_phases(bc, T, F)(rows, lams)
    assert np.array_equal(code, stacked._full_jets_batch(T, F, lams)[1])
    ok = code == 0
    assert 0 < np.sum(ok) < len(rows)
    want, _ = stacked._level_phases(bc, T, F[rows[ok]])(
        np.arange(np.sum(ok)), lams[ok])
    # the same eigenvalues on the unit circle: each within a few eps of one
    # of the stacked ones, whatever their order
    got, want = np.exp(1j * theta[:, ok]).T, np.exp(1j * want)
    err = np.abs(got[:, :, None] - want[:, None, :]).min(axis=2)
    assert np.all(err <= 16.0 * EPS)


class _Constant:
    """A fiber family with momentum-independent coefficients."""

    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs, dtype=complex)

    def stack(self, n):
        return np.broadcast_to(self.coeffs, (n,) + self.coeffs.shape).copy()


def test_constructed_rows_equal_the_stacked_kernel():
    eye = np.eye(2)
    ks = np.array([0.0, 0.5, -2.0])
    seen = set()
    cases = [
        # exponents +-i at z = i: on the imaginary axis (code 1)
        ([[[1.0 + 1j]], [[0.0]], [[1.0]]], "right", ks, 1j),
        # diag(mu^2 - 1 - i) at z = i: a double nu (code 2)
        ([-eye, 0.0 * eye, eye], "right", ks, 1j),
        # (mu - 1)^2 + i - z at z = i: a double mu (code 2)
        ([[[1.0 + 1j]], [[2.0]], [[1.0]]], "right", ks, 1j),
        # i d/dy + 1 decays on y < 0 only: a wrong count (code 3)
        ([[[1.0]], [[1j]]], "left", ks, 1j),
        # a zero fiber: no leading coefficient (code 4), and the zero
        # characteristic matrix's kernel vector
        (np.zeros((3, 2, 2)), "right", ks, 1j),
        # an odd mu term: the companion path
        ([[[1.0]], [[0.3]], [[-1.0]]], "right", ks, 0.25 + 0.5j),
    ]
    for coeffs, side, k, z in cases:
        Ds = _Constant(coeffs).stack(len(k))
        for zz in (z, np.conj(z), 0.7):
            seen.update(_assert_same_basis(Ds, k, np.full(len(k), zz),
                                           side).tolist())
    assert {1, 2, 3, 4} <= seen


def test_three_component_fibers_equal_the_stacked_kernel():
    # shallow water (N = 3): its leading coefficient has rank 2 of 3 (code
    # 4); random Hermitian N = 3 stacks take the companion roots, the SVD
    # kernel vectors and the SVD rank test on good rows
    ks = np.linspace(-5.0, 5.0, 41)
    zs = np.resize([1j, -1j, 0.3, -2.0], len(ks)).astype(complex)
    Ds = build_model("shallow", f=1.0, nu=0.1).symbol.fiber_stack(ks)
    assert np.all(_assert_same_basis(Ds, ks, zs, "right") == 4)
    rng = np.random.default_rng(23)
    X = (rng.normal(size=(40, 3, 3, 3)) + 1j * rng.normal(size=(40, 3, 3, 3)))
    Ds = X + X.conj().transpose(0, 1, 3, 2)
    zs = (rng.normal(size=40) + 1j * rng.normal(size=40)).astype(complex)
    codes = [_assert_same_basis(Ds, ks[:40], zs, side)
             for side in ("right", "left")]
    assert all(np.any(c == 0) for c in codes)
