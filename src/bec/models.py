"""The four built-in models: half-plane scalar Laplacian, massive Dirac
(half-plane and two-mass interface), regularized Dirac, and the rotating
shallow-water symbol (bulk only).

Each descriptor ships the bulk symbol, the fiber builder, the boundary
triple(s) with trace maps that satisfy the Green identity, named boundary
condition families, an affiliation reference condition, and the per-k window
in which edge eigenvalues are searched.
"""

import inspect

import numpy as np

from .errors import ContractViolation, DomainError
from .extension import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Y_MAT,
    BoundaryTriple,
    from_ab,
    from_klm,
)
from .symbol import FiberStack, GapWindow, Symbol, fiberize


class FiberFamily:
    """The fibers of a model over the boundary momenta, on one side.

    fam.stacks(ks) is the FiberStack of a whole array of momenta, with one
    coefficient stack per side symbol (`ModelDescriptor.side_symbols`);
    fam(k) is the one-row FiberStack at a single momentum.
    """

    def __init__(self, model, side):
        self.model = model
        self.side = side

    def __call__(self, k):
        return self.model.fiber(k, self.side)

    def stacks(self, ks):
        return FiberStack(ks, [S.fiber_stack(ks) for S in
                               self.model.side_symbols(self.side)])


class ModelDescriptor:
    """Bundle of everything the edge/extension machinery needs for a model.

    edge_enabled says whether the model ships a boundary triple; a model
    without one has bulk pairings only.
    """

    def __init__(self, name, params, symbol, symbol_minus=None, triples=None,
                 bc_families=None, reference_bc=None, fiducial_E=0.0,
                 gap_around=0.0, declared_gap=None, scan_window=None):
        self.name = name
        self.params = dict(params)
        self.symbol = symbol
        self.symbol_minus = symbol_minus
        self.triples = dict(triples or {})
        self.bc_families = dict(bc_families or {})
        self.reference_bc = dict(reference_bc or {})
        self.fiducial_E = float(fiducial_E)
        self.gap_around = float(gap_around)
        self.declared_gap = declared_gap
        self.edge_enabled = bool(self.triples)
        self._scan_window = scan_window

    def side_symbols(self, side="halfline"):
        """The symbols of the fiber's sides: (symbol,) on a half plane,
        (upper symbol, lower symbol) at an interface."""
        if side != "interface":
            return (self.symbol,)
        if self.symbol_minus is None:
            raise ContractViolation("%s has no interface form" % self.name)
        return self.symbol, self.symbol_minus

    def fiber(self, k, side="halfline"):
        """The one-row FiberStack at momentum k, one `fiberize` per side."""
        return FiberStack([k], [fiberize(S, k).sides[0] for S in
                                self.side_symbols(side)])

    def fiber_family(self, side="halfline"):
        return FiberFamily(self, side)

    def triple(self, side="halfline"):
        if side not in self.triples:
            raise ContractViolation("%s ships no %s boundary triple"
                                    % (self.name, side))
        return self.triples[side]

    def make_bc(self, family, **kw):
        if family not in self.bc_families:
            raise ContractViolation("%s has no boundary family %r (have %s)"
                                    % (self.name, family,
                                       sorted(self.bc_families)))
        return _call_checked(self.bc_families[family],
                             "%s boundary family %r" % (self.name, family), kw)

    def scan_window(self, k, gap):
        """Per-momentum open energy window in which edge eigenvalues may lie
        (the fiber's own gap can be wider than the two-dimensional gap)."""
        if self._scan_window is not None:
            return self._scan_window(k, gap)
        return gap.lo, gap.hi


def _call_checked(builder, what, kw):
    """builder(**kw), where kw that do not fit the builder's signature (a
    missing or unknown parameter) raise ContractViolation.  The signature is
    consulted only when the call fails, so a good call costs nothing."""
    try:
        return builder(**kw)
    except TypeError:
        try:
            inspect.signature(builder).bind(**kw)
        except TypeError as exc:
            raise ContractViolation("bad parameters for %s: %s"
                                    % (what, exc)) from None
        raise


# ---------------------------------------------------------------------------
# scalar Laplacian on the half plane


def laplacian():
    """-d^2/dx^2 - d^2/dy^2 with Robin-type boundary families
    (K + ell*k) psi(0) - M psi'(0)-style conditions (all parameters real)."""
    S = Symbol(1, {(2, 0): [[1.0]], (0, 2): [[1.0]]})
    # jets are (psi(0), psi'(0)); trace maps pick value and derivative
    T = BoundaryTriple(1, "halfline",
                       G1=np.array([[1.0, 0.0]], dtype=complex),
                       G2=np.array([[0.0, 1.0]], dtype=complex),
                       order=2, N=1)

    def robin(K=1.0, ell=0.0, M=0.0):
        # A(k) = K + ell*k (real dispersion-branch convention), B = -M
        return from_ab([np.array([[K]], dtype=complex),
                        np.array([[ell]], dtype=complex)],
                       [np.array([[-M]], dtype=complex)],
                       label="robin(K=%g,ell=%g,M=%g)" % (K, ell, M))

    def dirichlet():
        return from_ab(np.eye(1), np.zeros((1, 1)), label="dirichlet")

    def neumann():
        return from_klm("laplacian", np.array([[0.0]]), np.array([[0.0]]),
                        np.array([[1.0]]), label="neumann")

    def window(k, gap):
        # edge curves live under the parabola lam = k^2 (where the decay
        # exponent is real), including above the bulk threshold at 0
        ceil = k * k - 1e-9 * (1.0 + k * k)
        lo = gap.lo if np.isfinite(gap.lo) else -(10.0 + 10.0 * k * k)
        return lo, ceil

    return ModelDescriptor(
        "laplacian", {}, S,
        triples={"halfline": T},
        bc_families={"robin": robin, "dirichlet": dirichlet,
                     "neumann": neumann},
        reference_bc={"halfline": dirichlet()},
        fiducial_E=0.0, gap_around=-1.0,
        scan_window=window)


# ---------------------------------------------------------------------------
# massive Dirac operator, half plane and interface


def _dirac_symbol(m):
    return Symbol(2, {(1, 0): SIGMA_X, (0, 1): SIGMA_Y,
                      (0, 0): float(m) * SIGMA_Z})


def dirac(m, m_minus=None):
    """k1 sx + k2 sy + m sz.  Half-plane family psi_1(0) = a psi_2(0) and the
    interface problem with masses (m on y>0, m_minus on y<0), including the
    transparent and decoupled matching families."""
    m = float(m)
    if m == 0.0:
        raise DomainError("the mass must be nonzero")
    mm = m if m_minus is None else float(m_minus)
    if mm == 0.0:
        raise DomainError("the lower mass must be nonzero")
    S = _dirac_symbol(m)
    Sm = _dirac_symbol(mm)

    T_half = BoundaryTriple(1, "halfline",
                            G1=np.array([[0.0, 1.0]], dtype=complex),
                            G2=np.array([[1.0, 0.0]], dtype=complex),
                            order=1, N=2)
    # interface traces: difference of boundary values and Y-average
    I2 = np.eye(2, dtype=complex)
    T_int = BoundaryTriple(2, "interface",
                           G1=np.concatenate([-I2, I2], axis=1),
                           G2=np.concatenate([0.5 * Y_MAT, 0.5 * Y_MAT],
                                             axis=1),
                           order=1, N=2)

    def half_a(a=1.0):
        return from_ab(np.array([[float(a)]], dtype=complex),
                       np.eye(1, dtype=complex), label="a=%g" % a)

    def transparent():
        return from_ab(np.eye(2), np.zeros((2, 2)), label="transparent")

    def decoupled(aplus=1.0, aminus=1.0):
        ap, am = float(aplus), float(aminus)
        A = 0.5 * np.array([[-1.0, ap], [1.0, -am]], dtype=complex)
        B = np.array([[ap, 1.0], [am, 1.0]], dtype=complex)
        return from_ab(A, B, label="decoupled(%g,%g)" % (ap, am))

    gap = min(abs(m), abs(mm))

    def window(k, _gap):
        edge = np.sqrt(k * k + min(m * m, mm * mm))
        pad = 1e-9 * (1.0 + edge)
        return -edge + pad, edge - pad

    return ModelDescriptor(
        "dirac", {"m": m, "m_minus": mm}, S, symbol_minus=Sm,
        triples={"halfline": T_half, "interface": T_int},
        bc_families={"a": half_a, "transparent": transparent,
                     "decoupled": decoupled},
        reference_bc={"halfline": half_a(1.0), "interface": transparent()},
        fiducial_E=0.0, gap_around=0.0,
        declared_gap=GapWindow(-gap, gap, "declared"),
        scan_window=window)


# ---------------------------------------------------------------------------
# regularized Dirac operator


def regularized_dirac(m, eps):
    """k1 sx + k2 sy + (m + eps k^2) sz; the second-order regularization that
    makes the bulk Chern number integral converge to an integer."""
    m, eps = float(m), float(eps)
    if m == 0.0:
        raise DomainError("the mass must be nonzero")
    if eps == 0.0 or abs(eps) >= 0.5 * abs(m):
        raise DomainError("need 0 < |eps| < |m|/2 for the regularized model")
    S = Symbol(2, {(1, 0): SIGMA_X, (0, 1): SIGMA_Y,
                   (0, 0): m * SIGMA_Z, (2, 0): eps * SIGMA_Z,
                   (0, 2): eps * SIGMA_Z})
    # jets (psi(0), psi'(0)) in C^4; Gamma2 = -Y/2 psi(0) + eps sz psi'(0)
    Z2 = np.zeros((2, 2), dtype=complex)
    I2 = np.eye(2, dtype=complex)
    T = BoundaryTriple(2, "halfline",
                       G1=np.concatenate([I2, Z2], axis=1),
                       G2=np.concatenate([-0.5 * Y_MAT, eps * SIGMA_Z],
                                         axis=1),
                       order=2, N=2)

    def dirichlet():
        return from_ab(np.eye(2), np.zeros((2, 2)), label="dirichlet")

    def a_family(a=0.0):
        # psi_1(0) = 0 and a k psi_2(0) + psi_2'(0) = 0
        a = float(a)
        A0 = np.array([[1.0, 0.0], [1.0 / (2.0 * eps), 0.0]], dtype=complex)
        A1 = np.array([[0.0, 0.0], [0.0, a]], dtype=complex)
        B = np.array([[0.0, 0.0], [0.0, -1.0 / eps]], dtype=complex)
        return from_ab([A0, A1], [B], label="a=%g" % a)

    def klm(K, L, M):
        return from_klm("regdirac", K, L, M, eps=eps,
                        label="klm(regdirac)")

    def window(k, _gap):
        edge = np.sqrt(k * k + (m + eps * k * k) ** 2)
        pad = 1e-9 * (1.0 + edge)
        return -edge + pad, edge - pad

    return ModelDescriptor(
        "regdirac", {"m": m, "eps": eps}, S,
        triples={"halfline": T},
        bc_families={"dirichlet": dirichlet, "a": a_family, "klm": klm},
        reference_bc={"halfline": dirichlet()},
        fiducial_E=0.0, gap_around=0.0,
        declared_gap=GapWindow(-abs(m), abs(m), "declared"),
        scan_window=window)


# ---------------------------------------------------------------------------
# rotating shallow water (bulk only)


def shallow_water(f, nu):
    """Three-band symbol [[0, k1, k2], [k1, 0, i(f - nu k^2)],
    [k2, -i(f - nu k^2), 0]]; no boundary triple is shipped, so only bulk
    pairings are enabled."""
    f, nu = float(f), float(nu)
    if f == 0.0:
        raise DomainError("the rotation parameter f must be nonzero")
    P1 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
    P2 = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex)
    C = np.array([[0, 0, 0], [0, 0, 1j], [0, -1j, 0]], dtype=complex)
    terms = {(1, 0): P1, (0, 1): P2, (0, 0): f * C}
    if nu != 0.0:
        terms[(2, 0)] = -nu * C
        terms[(0, 2)] = -nu * C
    S = Symbol(3, terms)
    return ModelDescriptor(
        "shallow", {"f": f, "nu": nu}, S,
        triples={}, bc_families={}, reference_bc={},
        fiducial_E=abs(f) / 2.0, gap_around=abs(f) / 2.0,
        declared_gap=GapWindow(0.0, abs(f), "declared"))


BUILTIN_MODELS = {
    "laplacian": laplacian,
    "dirac": dirac,
    "regdirac": regularized_dirac,
    "shallow": shallow_water,
}


def build_model(name, **params):
    if name not in BUILTIN_MODELS:
        raise DomainError("unknown model %r (built-ins: %s)"
                          % (name, sorted(BUILTIN_MODELS)))
    return _call_checked(BUILTIN_MODELS[name], "model %r" % name, params)
