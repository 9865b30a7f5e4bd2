"""Unit tests of the dense linear-algebra / polynomial / quadrature kernels.

Expected numbers are either exact by construction or frozen values of simple
closed forms (square roots, Gaussian integrals) computed independently.
"""
import heapq
import itertools

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from numpy.polynomial.polynomial import polyfromroots

from bec.errors import (
    ContractViolation,
    InsufficientResolutionError,
)
from bec import numerics
from bec.extension import _roots
from bec.numerics import (
    _SPLITS_PER_CALL,
    _eigh_stack,
    _make_cells,
    _stack_product,
    as_matrix,
    as_square,
    check_hermitian,
    norm_inf,
    quad_2d,
    unwind_phase,
)


def poly_roots(coeffs):
    """Roots +-s of one even polynomial (coefficients by degree) through
    the deficiency kernel's root step, which must accept its leading
    coefficient."""
    s, ok, _ = _roots(np.asarray(coeffs, dtype=complex)[:, None], [0.0])
    assert ok[0]
    return list(np.concatenate([s[:, 0], -s[:, 0]]))


# ---------------------------------------------------------------------------
# matrix validation helpers


def test_as_matrix_rejects_wrong_rank():
    with pytest.raises(ContractViolation):
        as_matrix(np.zeros(3))
    with pytest.raises(ContractViolation):
        as_matrix(np.zeros((2, 2, 2)))


def test_as_matrix_rejects_nonfinite_and_oversize():
    with pytest.raises(ContractViolation):
        as_matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ContractViolation):
        as_matrix(np.zeros((65, 65)))


def test_as_square_rejects_rectangular():
    with pytest.raises(ContractViolation):
        as_square(np.zeros((2, 3)))


def test_norm_inf_known_value():
    assert norm_inf(np.array([[1.0, -2.0], [3.0, 4.0]])) == 7.0
    assert norm_inf(np.zeros((2, 2))) == 0.0


def test_check_hermitian_accepts_and_rejects():
    check_hermitian(np.array([[1.0, 2.0 + 1j], [2.0 - 1j, 3.0]]))
    with pytest.raises(ContractViolation):
        check_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# singular kernel


# ---------------------------------------------------------------------------
# polynomials


def test_poly_roots_simple_quadratics():
    r = sorted(poly_roots([-4.0, 0.0, 1.0]), key=lambda z: z.real)
    assert abs(r[0] + 2.0) < 1e-12 and abs(r[1] - 2.0) < 1e-12
    r = sorted(poly_roots([-1.0, 0.0, 1.0]), key=lambda z: z.real)
    assert abs(r[0] + 1.0) < 1e-12 and abs(r[1] - 1.0) < 1e-12


def test_poly_roots_fourth_order_dispersion_quartic():
    # mu^4 - 120 mu^2 + 200 factors through mu^2 = (60 +- sqrt(3400));
    # the same quartic arises as a fourth-order characteristic polynomial
    # with zeta_+ = 118.309518948453, zeta_- = 1.690481051547.
    roots = poly_roots([200.0, 0.0, -120.0, 0.0, 1.0])
    got = sorted(abs(r) for r in roots)
    want = [1.30018500666136, 1.30018500666136,
            10.8770179253531, 10.8770179253531]
    assert np.allclose(got, want, atol=1e-10)
    assert np.allclose(sorted(r.real for r in roots),
                       [-10.8770179253531, -1.30018500666136,
                        1.30018500666136, 10.8770179253531], atol=1e-10)


def test_poly_roots_rejects_degenerate_input():
    # a zero polynomial, and a leading coefficient at the noise level, have
    # no meaningful roots: the root step flags their rows; a polynomial
    # that is not even in mu is no input at all
    rows = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 1e-16], [1.0, 0.0, 1.0]],
                    dtype=complex)
    _, ok, _ = _roots(rows.T, [0.0, 1.0, 2.0])
    assert ok.tolist() == [False, False, True]
    rows[2, 1] = 2.0
    with pytest.raises(ContractViolation, match=r"k=\[2\.\]"):
        _roots(rows.T, [0.0, 1.0, 2.0])


def test_poly_from_roots_round_trip():
    # even polynomials of degree 2 and 4: roots in pairs +-r
    rng = np.random.default_rng(42)
    for n in (1, 2):
        roots = rng.normal(size=n) + 1j * rng.normal(size=n)
        # keep the roots well separated so the match is unambiguous
        roots = np.array([r + 0.5 * (i + 1) for i, r in enumerate(roots)])
        roots = np.concatenate([roots, -roots])
        c = polyfromroots(roots)
        back = poly_roots(c)
        assert np.allclose(sorted(back, key=lambda z: (z.real, z.imag)),
                           sorted(roots, key=lambda z: (z.real, z.imag)),
                           atol=1e-7)


# ---------------------------------------------------------------------------
# stacks of small matrices


def _hermitian(rng, n, N):
    X = rng.normal(size=(n, N, N)) + 1j * rng.normal(size=(n, N, N))
    return X + X.conj().swapaxes(1, 2)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_stack_product_matches_matmul(N):
    rng = np.random.default_rng(30 + N)
    pairs = [(rng.normal(size=(50, N, q)) + 1j * rng.normal(size=(50, N, q)),
              rng.normal(size=(50, q, N)) + 1j * rng.normal(size=(50, q, N)))
             for q in (N, N + 2)]
    for A, B in pairs:
        got = _stack_product(A, B)
        # both sum q products in some order: within 1e-15 of |A| |B|
        assert np.all(np.abs(got - A @ B) <= 1e-15 * (np.abs(A) @ np.abs(B)))


def _eigh_2x2_cases():
    """2 x 2 Hermitian stacks: random ones, diagonal ones (b = 0) with
    a > c and a < c, multiples of the identity, the zero matrix, nearly
    degenerate ones, and all of these scaled by 1e+-150."""
    rng = np.random.default_rng(40)
    diag = np.zeros((4, 2, 2), dtype=complex)
    diag[:, 0, 0] = [3.0, -1.0, 0.5, -2.0]
    diag[:, 1, 1] = [1.0, 2.0, -0.5, -7.0]
    identity = np.array([0.0, 1.0, -2.5, 1e-3])[:, None, None] * np.eye(2)
    near = np.eye(2) + 1e-12 * _hermitian(rng, 20, 2)
    stacks = {"random": _hermitian(rng, 200, 2), "diagonal": diag,
              "identity": identity, "near-identity": near}
    for name in ("random", "diagonal", "identity"):
        for s in (1e150, 1e-150):
            stacks["%s*%g" % (name, s)] = s * stacks[name]
    return stacks


@pytest.mark.parametrize("case", list(_eigh_2x2_cases()))
def test_eigh_stack_2x2_matches_lapack(case):
    H = _eigh_2x2_cases()[case]
    w, V = _eigh_stack(H)
    ref = np.linalg.eigvalsh(H)
    eps = np.finfo(float).eps
    scale = np.maximum(np.abs(H).max(axis=(1, 2)), np.finfo(float).tiny)
    assert w.shape == ref.shape and V.shape == H.shape
    assert np.all(np.diff(w, axis=1) >= 0.0)
    assert np.all(np.abs(w - ref) <= 4.0 * eps * scale[:, None])
    assert np.max(np.abs(V.conj().swapaxes(1, 2) @ V - np.eye(2))) <= 1e-14
    res = H @ V - V * w[:, None, :]
    assert np.all(np.abs(res).max(axis=(1, 2)) <= 4.0 * eps * scale)


def test_eigh_stack_2x2_multiple_of_identity_gives_identity():
    w, V = _eigh_stack(np.array([2.0, 0.0])[:, None, None] * np.eye(2) + 0j)
    assert np.array_equal(w, [[2.0, 2.0], [0.0, 0.0]])
    assert np.array_equal(V, [np.eye(2), np.eye(2)])


@pytest.mark.parametrize("N", [1, 4])
def test_eigh_stack_other_sizes_are_lapack(N):
    H = _hermitian(np.random.default_rng(50 + N), 30, N)
    w, V = _eigh_stack(H)
    w_ref, V_ref = np.linalg.eigh(H)
    assert np.array_equal(w, w_ref) and np.array_equal(V, V_ref)


def _with_spectrum(rng, w):
    """Q diag(w) Q^dag for one random unitary Q per row of w (n, 3)."""
    X = rng.normal(size=(len(w), 3, 3)) + 1j * rng.normal(size=(len(w), 3, 3))
    Q = np.linalg.qr(X)[0]
    return (Q * w[:, None, :]) @ Q.conj().swapaxes(1, 2)


def _eigh_3x3_cases():
    """3 x 3 Hermitian stacks: random ones; diagonal ones; multiples of the
    identity and the zero matrix; a pair of eigenvalues t apart, at the top
    and at the bottom of the spectrum; a triple within t; the shallow-water
    symbol at nodes of the compactified plane out to |k| ~ 1e6; and all of
    these scaled by 1e+-150."""
    from bec.models import build_model

    rng = np.random.default_rng(41)
    diag = np.zeros((6, 3, 3), dtype=complex)
    for i, d in enumerate([(3.0, 1.0, 2.0), (-1.0, 2.0, 0.0),
                           (0.5, -0.5, 7.0), (1.0, 1.0, 2.0),
                           (2.0, -2.0, 2.0), (0.0, 0.0, 1e-3)]):
        diag[i] = np.diag(d)
    stacks = {"random": _hermitian(rng, 200, 3), "diagonal": diag,
              "identity": np.array([0.0, 1.0, -2.5, 1e-3])[:, None, None]
              * np.eye(3) + 0j}
    for t in (1e-2, 1e-6, 1e-12, 0.0):
        stacks["pair %g" % t] = np.concatenate([
            _with_spectrum(rng, np.tile([-1.0, 1.0, 1.0 + t], (10, 1))),
            _with_spectrum(rng, np.tile([-1.0 - t, -1.0, 1.0], (10, 1)))])
    for t in (1e-3, 1e-8, 1e-13, 1e-120):
        stacks["triple %g" % t] = np.eye(3) + t * _hermitian(rng, 20, 3)
    s = rng.uniform(-1.0, 1.0, size=(2, 400))
    s[0, :40] = np.sign(s[0, :40]) * (1.0 - np.geomspace(1e-5, 6e-7, 40))
    k1, k2 = np.tan(np.pi / 2 * s)
    shallow = build_model("shallow", f=1.0, nu=0.1).symbol
    stacks["shallow"] = shallow.eval_batch(k1, k2)
    for name in list(stacks):
        for scale in (1e150, 1e-150):
            stacks["%s*%g" % (name, scale)] = scale * stacks[name]
    return stacks


# The closed form's error bound c in units of eps times the largest |H_ij|.
# The kernel scales each row by the power of two 2^-e that puts its largest
# entry in [1/2, 1), so one unit of the scaled row is at most 2 |H|_max, and
# it accepts a row only if 1 - |r| >= 1/32 and every chosen cross product is
# >= 1/32 (scaled units).
# - Eigenvalues: mu = 2 p cos(phi + 2 pi j/3) with r = cos 3 phi moves by at
#   most 2 p dr / (3 sin 3 phi), and sin 3 phi >= sqrt(1 - (31/32)^2) > 1/4.1,
#   p <= sqrt(3/2) (6 p^2 = |B|_F^2 <= |A|_F^2 <= 9).  With r, p and the shift
#   each carrying about 8 roundings, dmu <~ 3.4 * 8 eps < 30 eps.
# - Gaps: 1 - |r| >= 1/32 keeps every gap g >= 2 sqrt(3) p sin(arccos(31/32)/3)
#   > 0.28 p; a chosen cross product is at most the product of its
#   eigenvalue's two gaps, and no gap exceeds 2 sqrt(3) p, so
#   g * 2 sqrt(3) p >= 1/32.  Together g > 0.05.
# - Eigenvectors: an error d of the entries of H - mu turns the null vector
#   by at most d / g < 20 d, with d about 8 eps: within 160 eps, and so is
#   their orthonormality.  The residual H v - v mu is d per direction, not
#   d / g: within 2 (30 + 8) eps.
# Doubling the scaled unit, c = 2 * 160 bounds all three; LAPACK's own error
# (a few eps) is well inside it.
C_3X3 = 320.0


@pytest.mark.parametrize("case", list(_eigh_3x3_cases()))
def test_eigh_stack_3x3_matches_lapack(case):
    H = _eigh_3x3_cases()[case]
    w, V = _eigh_stack(H)
    ref = np.linalg.eigvalsh(H)
    eps = np.finfo(float).eps
    scale = np.maximum(np.abs(H).max(axis=(1, 2)), np.finfo(float).tiny)
    assert w.shape == ref.shape and V.shape == H.shape
    assert np.all(np.diff(w, axis=1) >= 0.0)
    assert np.all(np.abs(w - ref) <= C_3X3 * eps * scale[:, None])
    assert np.max(np.abs(V.conj().swapaxes(1, 2) @ V - np.eye(3))) \
        <= C_3X3 * eps
    res = H @ V - V * w[:, None, :]
    assert np.all(np.abs(res).max(axis=(1, 2)) <= C_3X3 * eps * scale)


def test_eigh_stack_3x3_fallback_rows_are_lapack(monkeypatch):
    cases = _eigh_3x3_cases()
    H = np.concatenate(list(cases.values()))
    names = np.concatenate([[name] * len(h) for name, h in cases.items()])
    sent = []
    eigh = np.linalg.eigh

    def spy(A):
        sent.append(A.copy())
        return eigh(A)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    w, V = _eigh_stack(H)
    monkeypatch.undo()
    assert len(sent) == 1
    sent = {A.tobytes() for A in sent[0]}
    rows = [i for i, h in enumerate(H) if h.tobytes() in sent]
    w_ref, V_ref = eigh(H[rows])
    assert w[rows].tobytes() == w_ref.tobytes()
    assert V[rows].tobytes() == V_ref.tobytes()
    # every row near a degenerate pair or triple goes, no shallow-water row
    sent_per_case = {name: np.sum(names[rows] == name) for name in cases}
    for name, h in cases.items():
        base = name.split("*")[0]
        if base in ("identity", "pair 1e-06", "pair 1e-12", "pair 0",
                    "triple 1e-08", "triple 1e-13", "triple 1e-120"):
            assert sent_per_case[name] == len(h), name
        if base == "shallow":
            assert sent_per_case[name] == 0, name


def test_eigh_stack_3x3_rows_do_not_depend_on_their_batch():
    H = np.concatenate(list(_eigh_3x3_cases().values()))
    w, V = _eigh_stack(H)
    for i in range(len(H)):
        w1, V1 = _eigh_stack(H[i:i + 1])
        assert w1.tobytes() == w[i:i + 1].tobytes()
        assert V1.tobytes() == V[i:i + 1].tobytes()


# ---------------------------------------------------------------------------
# quadrature


def test_quad_2d_zero_integrand():
    res = quad_2d(lambda x, y: np.zeros_like(x))
    assert res.value == 0.0
    assert res.converged


def test_quad_2d_gaussian_integral():
    res = quad_2d(lambda x, y: np.exp(-(x * x + y * y)), tol=1e-8)
    assert res.converged
    assert abs(res.value - np.pi) < 1e-8


def test_quad_2d_is_linear():
    f = lambda x, y: np.exp(-(x * x + y * y))
    g = lambda x, y: np.exp(-((x - 1.0) ** 2 + y * y)) * x
    vf = quad_2d(f, tol=1e-8).value
    vg = quad_2d(g, tol=1e-8).value
    vfg = quad_2d(lambda x, y: 2.0 * f(x, y) - 3.0 * g(x, y), tol=1e-8).value
    assert abs(vfg - (2.0 * vf - 3.0 * vg)) < 1e-6


def _quad_2d_per_cell(f, tol, max_cells=6000):
    """Reference adaptive quadrature: the same rules and error estimate as
    quad_2d, refined one worst cell at a time, with each rule on each cell
    evaluated by a call of its own.  It ends at the same leaves as quad_2d,
    which refines in rounds.  Returns (value, error, converged, cells)."""
    rules = (leggauss(8), leggauss(4))

    def rule_value(a1, b1, a2, b2, nodes, weights):
        m1, h1 = (a1 + b1) / 2.0, (b1 - a1) / 2.0
        m2, h2 = (a2 + b2) / 2.0, (b2 - a2) / 2.0
        S1, S2 = np.meshgrid(m1 + h1 * nodes, m2 + h2 * nodes, indexing="ij")
        K1, K2 = np.tan(np.pi * S1 / 2.0), np.tan(np.pi * S2 / 2.0)
        jac = (np.pi / 2.0) ** 2 / (np.cos(np.pi * S1 / 2.0) ** 2
                                    * np.cos(np.pi * S2 / 2.0) ** 2)
        vals = f(K1.ravel(), K2.ravel()).reshape(K1.shape)
        W = np.outer(weights, weights)
        return complex(np.sum(vals * jac * W) * h1 * h2)

    heap, counter = [], 0

    def push(a1, b1, a2, b2):
        nonlocal counter
        v8, v4 = (rule_value(a1, b1, a2, b2, *r) for r in rules)
        c = (a1, b1, a2, b2, v8, abs(v8 - v4))
        heapq.heappush(heap, (-c[5], counter, c))
        counter += 1

    for box in ((-1.0, 0.0, -1.0, 0.0), (-1.0, 0.0, 0.0, 1.0),
                (0.0, 1.0, -1.0, 0.0), (0.0, 1.0, 0.0, 1.0)):
        push(*box)
    converged = True
    while sum(-e for e, _, _ in heap) > tol:
        if len(heap) + 3 > max_cells:
            converged = False
            break
        a1, b1, a2, b2 = heapq.heappop(heap)[2][:4]
        m1, m2 = (a1 + b1) / 2.0, (a2 + b2) / 2.0
        for x1, y1 in ((a1, m1), (m1, b1)):
            for x2, y2 in ((a2, m2), (m2, b2)):
                push(x1, y1, x2, y2)
    leaves = sorted((c for _, _, c in heap), key=lambda c: (c[0], c[2]))
    return (complex(sum(c[4] for c in leaves)),
            float(sum(c[5] for c in leaves)), converged, len(leaves))


def _counted(f):
    sizes = []

    def g(x, y):
        sizes.append(len(x))
        return f(x, y)

    return g, sizes


def _recorded(monkeypatch):
    """The cells of every `_make_cells` call of quad_2d, one list per call
    of the integrand."""
    calls = []

    def make_cells(f, boxes):
        cells = _make_cells(f, boxes)
        calls.append(cells)
        return cells

    monkeypatch.setattr(numerics, "_make_cells", make_cells)
    return calls


def _rounds(calls, tol):
    """Replay the round rule on the recorded calls of a converged run: order
    the cells worst first (by error, then by creation), count the forced
    ones (error plus the errors of all cells after them above tol), and
    check that the next calls split exactly those, worst first.  Returns
    the splits of every round."""
    created = itertools.count()
    leaves = [(-c[5], next(created), c) for c in calls[0]]
    rounds, at = [], 1
    while True:
        leaves.sort()
        rest = itertools.accumulate(-e for e, _, _ in reversed(leaves))
        forced = sum(1 for r in rest if r > tol)
        if at == len(calls):
            assert forced == 0
            return rounds
        split = []
        while len(split) < 4 * forced:
            split += calls[at]
            at += 1
        assert len(split) == 4 * forced
        # the four cells of a split, lower left first, span its parent
        parents = [(q[0][0], q[3][1], q[0][2], q[3][3])
                   for q in zip(*[iter(split)] * 4)]
        assert [c[:4] for _, _, c in leaves[:forced]] == parents
        del leaves[:forced]
        leaves += [(-c[5], next(created), c) for c in split]
        rounds.append(forced)


QUAD_INTEGRANDS = [
    lambda x, y: np.exp(-(x * x + y * y)),
    lambda x, y: np.exp(-((x - 1.0) ** 2 + y * y)) * x,
    lambda x, y: (1.0 + 2j * x) / (1.0 + x * x + y ** 4) ** 2,
]


@pytest.mark.parametrize("i", range(len(QUAD_INTEGRANDS)))
def test_quad_2d_calls_carry_whole_splits(i, monkeypatch):
    calls = _recorded(monkeypatch)
    g, sizes = _counted(QUAD_INTEGRANDS[i])
    res = quad_2d(g, tol=1e-8)
    assert res.converged
    splits = (res.cells - 4) // 3
    assert res.cells == 4 + 3 * splits
    # the first call carries the initial split: both rules (64 + 16
    # nodes) on four cells
    assert sizes[0] == 4 * 80 and len(calls[0]) == 4
    # every later call carries whole splits, at most _SPLITS_PER_CALL
    assert [len(c) for c in calls] == [n // 80 for n in sizes]
    assert all(n % (4 * 80) == 0 and 0 < n <= _SPLITS_PER_CALL * 4 * 80
               for n in sizes[1:])
    rounds = _rounds(calls, 1e-8)
    assert sum(rounds) == splits
    assert len(sizes) <= 1 + -(-splits // _SPLITS_PER_CALL) + len(rounds)
    assert len(sizes) < 1 + splits


@pytest.mark.parametrize("i", range(len(QUAD_INTEGRANDS)))
def test_quad_2d_equals_per_cell_reference(i):
    # the reference refines one cell at a time and sums the heap before
    # every split; quad_2d splits every forced cell of a round at once and
    # must stop after the same cells at every tol
    for tol in (1e-4, 1e-6, 1e-8):
        res = quad_2d(QUAD_INTEGRANDS[i], tol=tol)
        assert (res.value, res.error, res.converged, res.cells) == \
            _quad_2d_per_cell(QUAD_INTEGRANDS[i], tol)


def _random_integrand(kind, rng):
    """A seeded integrand: a Gaussian mixture with complex amplitudes, an
    exactly symmetric Gaussian (whose cells tie in error), or the rational
    (1 + i x) / (1 + x^2 + y^4)^p."""
    if kind == "mixture":
        n = rng.integers(1, 4)
        centers = rng.normal(0.0, 1.5, (n, 2))
        widths = rng.uniform(0.3, 2.0, n)
        amps = rng.normal(size=n) + 1j * rng.normal(size=n)
        return lambda x, y: sum(
            a * np.exp(-((x - c1) ** 2 + (y - c2) ** 2) / s)
            for a, (c1, c2), s in zip(amps, centers, widths))
    if kind == "symmetric":
        s = rng.uniform(0.2, 3.0)
        return lambda x, y: np.exp(-(x * x + y * y) / s)
    p = rng.uniform(1.2, 3.0)
    return lambda x, y: (1.0 + 1j * x) / (1.0 + x * x + y ** 4) ** p


@pytest.mark.parametrize("kind", ["mixture", "symmetric", "rational"])
@pytest.mark.parametrize("seed", range(3))
def test_quad_2d_equals_reference_on_random_integrands(kind, seed):
    f = _random_integrand(kind, np.random.default_rng(seed))
    for tol in (1e-4, 1e-6):
        for max_cells in (6000, 100):
            res = quad_2d(f, tol=tol, max_cells=max_cells)
            ref = _quad_2d_per_cell(f, tol, max_cells)
            if ref[2]:
                assert tuple(res) == ref
            else:
                # both loops must split every forced cell to converge, so
                # both stop at the bound; only the leaves may differ there
                assert (res.converged, res.cells) == (False, ref[3])


def test_quad_2d_nan_integrand_does_not_converge():
    def f(x, y):
        out = np.exp(-(x * x + y * y))
        out[(x > 0.3) & (x < 0.5) & (y > 0.1) & (y < 0.2)] = np.nan
        return out

    for g in (f, lambda x, y: np.full(x.shape, np.nan)):
        res = quad_2d(g, tol=1e-6, max_cells=100)
        assert not res.converged
        assert res.cells == 100
        assert np.isnan(res.error)


def test_quad_2d_stops_at_max_cells():
    g, sizes = _counted(QUAD_INTEGRANDS[2])
    res = quad_2d(g, tol=1e-14, max_cells=40)
    assert not res.converged
    assert res.cells == 40
    # every cell is forced at this tol: the first round splits the four
    # initial cells, the second the eight of its sixteen that fit under 40
    assert sum(sizes) == (1 + 4 + 8) * 4 * 80
    assert all(n % (4 * 80) == 0 for n in sizes)
    per_call = _SPLITS_PER_CALL
    assert len(sizes) == 1 + -(-4 // per_call) + -(-8 // per_call)


# ---------------------------------------------------------------------------
# phase unwinding


def test_unwind_phase_constant_is_zero():
    assert unwind_phase([1.0, 1.0, 1.0]) == 0.0


def test_unwind_phase_full_loop_in_quarter_steps():
    s = np.exp(1j * np.pi / 2.0 * np.arange(5))
    assert unwind_phase(s) == 1.0


def test_unwind_phase_direction():
    s = np.exp(-1j * np.pi / 2.0 * np.arange(5))
    assert unwind_phase(s) == -1.0


def test_unwind_phase_rejects_bad_magnitudes():
    with pytest.raises(ContractViolation):
        unwind_phase([1.0, 3.0])
    with pytest.raises(ContractViolation):
        unwind_phase([1.0, 0.1])


def test_unwind_phase_rejects_non_finite_samples():
    # a nan compares false against both magnitude bounds
    for bad in (np.nan, np.inf, complex(1.0, np.nan)):
        with pytest.raises(ContractViolation, match="finite"):
            unwind_phase([1.0, bad, 1j])


def test_unwind_phase_rejects_coarse_sampling():
    # a jump of 3/4 pi cannot be told apart from -5/4 pi
    with pytest.raises(InsufficientResolutionError):
        unwind_phase([1.0, np.exp(0.75j * np.pi)])


def test_unwind_phase_concatenation_is_additive():
    rng = np.random.default_rng(7)
    angles = np.cumsum(rng.uniform(-1.2, 1.4, size=40))
    s = np.exp(1j * angles)
    for j in (1, 17, 38):
        total = unwind_phase(s)
        parts = unwind_phase(s[: j + 1]) + unwind_phase(s[j:])
        assert abs(total - parts) < 1e-12
