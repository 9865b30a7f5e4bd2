"""Tests of the built-in model descriptors: parameter validation, shipped
fibers/triples, reference conditions and scan windows.
"""
import numpy as np
import pytest

from bec.errors import ContractViolation, DomainError
from bec.extension import _side_bases, green_identity_residual
from bec.models import (
    BUILTIN_MODELS,
    build_model,
    dirac,
    laplacian,
    regularized_dirac,
    shallow_water,
)
from bec.symbol import FiberStack
from conftest import decaying_basis

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
Y = np.array([[0.0, 1.0], [-1.0, 0.0]])


def test_builtin_registry_keys():
    assert set(BUILTIN_MODELS) == {"laplacian", "dirac", "regdirac",
                                   "shallow"}


def test_build_model_rejects_unknown_name():
    with pytest.raises(DomainError):
        build_model("tight-binding")


def test_parameter_validation():
    with pytest.raises(DomainError):
        dirac(0.0)
    with pytest.raises(DomainError):
        dirac(1.0, m_minus=0.0)
    with pytest.raises(DomainError):
        regularized_dirac(1.0, 0.0)
    with pytest.raises(DomainError):
        regularized_dirac(1.0, 0.6)  # needs |eps| < |m|/2
    with pytest.raises(DomainError):
        shallow_water(0.0, 0.1)


def test_scalar_model_shape(lap_model):
    assert lap_model.symbol.N == 1
    (Ds,) = lap_model.fiber(2.0).sides
    assert Ds.shape == (1, 3, 1, 1)
    assert np.allclose(Ds[0, 0], [[4.0]])
    with pytest.raises(ContractViolation):
        lap_model.triple("interface")
    with pytest.raises(ContractViolation):
        lap_model.fiber(2.0, "interface")


def test_neumann_is_pure_derivative_condition(lap_model):
    A, B = lap_model.make_bc("neumann").ab_at(0.4)
    assert np.allclose(A, [[0.0]]) and np.allclose(B, [[-1.0]])


def test_scalar_scan_window_stays_below_parabola(lap_model):
    from bec.symbol import GapWindow

    gap = GapWindow(-50.0, 0.0)
    lo, hi = lap_model.scan_window(3.0, gap)
    assert lo == -50.0
    assert hi < 9.0
    gap = GapWindow(-np.inf, 0.0)
    lo, hi = lap_model.scan_window(3.0, gap)
    assert np.isfinite(lo)


def test_two_band_halfline_descriptor(dirac_model):
    assert dirac_model.declared_gap.lo == -1.0
    assert dirac_model.declared_gap.hi == 1.0
    (Ds,) = dirac_model.fiber(0.5).sides
    assert Ds.shape == (1, 2, 2, 2)
    assert np.allclose(Ds[0, 0], 0.5 * SX + SZ)
    assert np.allclose(Ds[0, 1], Y)
    assert dirac_model.reference_bc["halfline"].label == "a=1"


def test_two_band_interface_descriptor(dirac_interface_model):
    model = dirac_interface_model
    F = model.fiber(0.5, "interface")
    assert isinstance(F, FiberStack)
    assert F.k == 0.5 and len(F.sides) == 2
    assert np.allclose(F.sides[0][0, 0], 0.5 * SX + SZ)
    assert np.allclose(F.sides[1][0, 0], 0.5 * SX - SZ)
    T = model.triple("interface")
    assert T.dimV == 2 and T.side == "interface"
    assert model.reference_bc["interface"].label == "transparent"


def test_fourth_order_descriptor(regdirac_model):
    assert regdirac_model.declared_gap.lo == -1.0
    assert regdirac_model.declared_gap.hi == 1.0
    (Ds,) = regdirac_model.fiber(1.0).sides
    assert Ds.shape == (1, 3, 2, 2)
    assert np.allclose(Ds[0, 0], SX + 1.1 * SZ)
    assert np.allclose(Ds[0, 1], Y)
    assert np.allclose(Ds[0, 2], -0.1 * SZ)
    assert regdirac_model.reference_bc["halfline"].label == "dirichlet"


def test_shallow_water_descriptor(shallow_model):
    assert shallow_model.symbol.N == 3
    assert not shallow_model.edge_enabled
    assert shallow_model.fiducial_E == 0.5
    assert shallow_model.declared_gap.lo == 0.0
    assert shallow_model.declared_gap.hi == 1.0
    with pytest.raises(ContractViolation):
        shallow_model.triple("halfline")
    with pytest.raises(ContractViolation):
        shallow_model.make_bc("dirichlet")


def test_make_bc_rejects_unknown_family(dirac_model):
    with pytest.raises(ContractViolation):
        dirac_model.make_bc("robin", K=1.0)


def test_decoupled_family_encodes_two_half_lines(dirac_interface_model):
    # trace pairs with psi1(0+) = a+ psi2(0+) and psi1(0-) = a- psi2(0-)
    # satisfy the decoupled condition; the same orientation as the half-line
    # family (A, B) = (a, 1) acting on (Gamma1, Gamma2) = (psi2, psi1).
    T = dirac_interface_model.triple("interface")
    G1, G2 = (G[0] for G in T.traces([0.0]))
    for ap, am in ((2.0, 1.0), (3.0, 0.5), (-2.0, 1.0)):
        bc = dirac_interface_model.make_bc("decoupled", aplus=ap, aminus=am)
        A, B = bc.ab_at(0.0)
        for tr_p, tr_m in ((np.array([ap, 1.0]), np.array([am, 1.0])),
                           (np.array([ap, 1.0]), np.array([0.0, 0.0])),
                           (np.array([0.0, 0.0]), np.array([am, 1.0]))):
            jet = np.concatenate([tr_p, tr_m])
            resid = A @ (G1 @ jet) - B @ (G2 @ jet)
            assert np.linalg.norm(resid) < 1e-12


def test_green_identity_on_momentum_grid(
        lap_model, dirac_model, dirac_interface_model, regdirac_model):
    ks = np.linspace(-5.0, 5.0, 21)
    for model, side in ((lap_model, "halfline"), (dirac_model, "halfline"),
                        (dirac_interface_model, "interface"),
                        (regdirac_model, "halfline")):
        T = model.triple(side)
        for k in ks:
            assert green_identity_residual(T, model.fiber(k, side)) < 1e-8


def test_deficiency_indices_of_builtin_models(
        lap_model, dirac_model, dirac_interface_model, regdirac_model):
    # equal counts on both sides: (1,1) scalar, (1,1) first-order two-band,
    # (2,2) fourth-order, and 1 per half for the interface
    for k in (0.5, 31.6, 1000.0):
        for model, n in ((lap_model, 1), (dirac_model, 1),
                         (regdirac_model, 2)):
            assert len(decaying_basis(model.fiber(k), 1j, "right")[0]) == n
        sides = _side_bases(dirac_interface_model.fiber(k, "interface"),
                            np.array([1j]))
        assert [mus.shape for mus, _, _, _ in sides] == [(1, 1), (1, 1)]
        assert [code[0] for *_, code in sides] == [0, 0]


def test_interface_scan_window_uses_smaller_mass():
    model = dirac(1.0, m_minus=-3.0)
    lo, hi = model.scan_window(2.0, model.declared_gap)
    edge = np.sqrt(4.0 + 1.0)
    assert hi <= edge and hi > edge - 1e-6
    assert lo >= -edge and lo < -edge + 1e-6
    assert model.declared_gap.hi == 1.0


@pytest.mark.parametrize("name, params, gap", [
    ("dirac", {"m": 1.0}, (-1.0, 1.0)),
    ("dirac", {"m": -1.0}, (-1.0, 1.0)),
    ("regdirac", {"m": -1.0, "eps": 0.1}, (-1.0, 1.0)),
    ("regdirac", {"m": 1.0, "eps": 0.1}, (-1.0, 1.0)),
    ("shallow", {"f": 1.0, "nu": 0.1}, (0.0, 1.0)),
])
def test_declared_gaps_at_the_table_parameters(name, params, gap):
    # 1 + 2 eps m > 0 (and 2 nu f < 1): each band edge is at k = 0
    g = build_model(name, **params).declared_gap
    assert (g.lo, g.hi) == gap


@pytest.mark.parametrize("name, params, edge", [
    ("regdirac", {"m": 4.0, "eps": -1.5}, np.sqrt(23.0) / 3.0),
    ("regdirac", {"m": -4.0, "eps": 1.5}, np.sqrt(23.0) / 3.0),
    ("shallow", {"f": 1.0, "nu": 1.0}, np.sqrt(3.0) / 2.0),
    ("shallow", {"f": -1.0, "nu": -1.0}, np.sqrt(3.0) / 2.0),
])
def test_declared_gap_ends_at_a_band_edge_off_k0(name, params, edge):
    # 1 + 2 eps m < 0 (2 nu f > 1): the band's minimum over k lies off
    # k = 0; sampled along k1 it is the declared gap's upper end
    model = build_model(name, **params)
    g = model.declared_gap
    assert g.hi == pytest.approx(edge, rel=1e-14)
    ks = np.linspace(0.0, 3.0, 30001)
    upper = np.linalg.eigvalsh(model.symbol.eval_batch(ks, 0.0 * ks))[:, -1]
    assert edge - 1e-12 <= upper.min() <= edge + 1e-6
