"""Tests of the model-file front end: strict parsing, and construction of
models / boundary conditions / numerics defaults.
"""
import numpy as np
import pytest

from bec.errors import ModelFileError
from bec.modelfile import (
    build,
    parse,
    parse_complex,
    parse_matrix,
    parse_real,
)

TWO_BAND_FILE = """
[model]
name = dirac
m = 1

[boundary]
family = a
a = 2

[numerics]
k_window = 3
k_resolution = 161
lam_resolution = 160

[task]
level = 0
"""

INLINE_SYMBOL_FILE = """
[symbol]
1 0 : 0 1 ; 1 0
0 1 : 0 -1i ; 1i 0
0 0 : 1 0 ; 0 -1

[task]
level = 0
gap_lo = -1
gap_hi = 1
"""


# ---------------------------------------------------------------------------
# scalar / matrix literals


def test_complex_literals():
    for text, want in (("2", 2.0 + 0j), ("-0.5i", -0.5j), ("1+2i", 1.0 + 2j),
                       ("1-2i", 1.0 - 2j), ("i", 1j), ("-i", -1j),
                       (" 1.5e-3-2.5e2i ", 1.5e-3 - 250j)):
        assert parse_complex(text) == want


def test_parse_complex_rejects_junk():
    with pytest.raises(ModelFileError):
        parse_complex("1+2j+3")
    with pytest.raises(ModelFileError):
        parse_complex("abc")


def test_whitespace_inside_a_scalar_literal_is_rejected():
    # read as one number, "1 2" used to become 12
    with pytest.raises(ModelFileError, match="'1 2': whitespace inside"):
        parse_complex("1 2")
    with pytest.raises(ModelFileError, match=r"line 6: \[boundary\] a = 1 2: "
                       r"bad number literal '1 2': whitespace inside"):
        parse("[model]\nname = dirac\nm = 1\n\n[boundary]\na = 1 2\n")
    with pytest.raises(ModelFileError,
                       match=r"\[model\] m = 1 \+ 2i: bad number literal"):
        parse("[model]\nname = dirac\nm = 1 + 2i\n")
    # matrix entries are split first; a padded scalar is still a scalar
    data = parse("[model]\nname = dirac\nm =  1.5  \n\n[boundary]\n"
                 "A0 = 1 2 ; 3 4\n")
    assert data.model["m"] == 1.5
    assert np.array_equal(data.boundary["A0"], [[1, 2], [3, 4]])


def test_parse_real_rejects_imaginary_part():
    assert parse_real("2.5", "m") == 2.5
    with pytest.raises(ModelFileError):
        parse_real("1+2i", "m")


def test_matrix_literals():
    M = np.array([[1.0, -2.0j], [0.5 + 0.5j, 3.0]])
    assert np.array_equal(parse_matrix("1 -2i ; 0.5+0.5i  3"), M)
    assert np.array_equal(parse_matrix("0 ; 1"), [[0.0], [1.0]])


def test_parse_matrix_rejects_ragged_rows():
    with pytest.raises(ModelFileError):
        parse_matrix("1 2 ; 3")


# ---------------------------------------------------------------------------
# parsing


def _parsed(text):
    """Every section of the parsed text as plain values, matrices as lists."""
    data = parse(text)

    def plain(v):
        return v.tolist() if isinstance(v, np.ndarray) else v
    return {"model": data.model,
            "symbol": [(a, b, plain(M)) for a, b, M in data.symbol_terms],
            "boundary": {k: plain(v) for k, v in data.boundary.items()},
            "numerics": data.numerics, "task": data.task}


def test_parse_two_band_and_inline_symbol_files():
    assert _parsed(TWO_BAND_FILE) == {
        "model": {"name": "dirac", "m": 1.0},
        "symbol": [],
        "boundary": {"family": "a", "a": 2.0},
        "numerics": {"k_window": 3.0, "k_resolution": 161.0,
                     "lam_resolution": 160.0},
        "task": {"level": 0.0}}
    assert _parsed(INLINE_SYMBOL_FILE) == {
        "model": {},
        "symbol": [(1, 0, [[0, 1], [1, 0]]), (0, 1, [[0, -1j], [1j, 0]]),
                   (0, 0, [[1, 0], [0, -1]])],
        "boundary": {}, "numerics": {},
        "task": {"level": 0.0, "gap_lo": -1.0, "gap_hi": 1.0}}


EVERY_KEY_FILE = """
# every section and key, out of order
[task]
gap_hi = 1
level = 0.25
gap_lo = -1

[numerics]
lam_resolution = 160
k_resolution = 161
k_window = 3
tol = 1e-4

[boundary]
B1 = 0 ; 1
M = -3
A0 = 1
K = 2
ell = 0.5
aminus = -1
aplus = 1
a = 2
side = interface
family = decoupled
B0 = 3-2i
A1 = 1 2 ; 3 4

[symbol]
0 1 : 0 -1i ; 1i 0
1 0 : 0 1 ; 1 0
0 0 : 1 0 ; 0 -1

[model]
nu = 0.1
f = 1
m_minus = -1
eps = 0.1
m = 1
name = dirac
"""

def test_parse_every_section_and_key():
    assert _parsed(EVERY_KEY_FILE) == {
        "model": {"nu": 0.1, "f": 1.0, "m_minus": -1.0, "eps": 0.1, "m": 1.0,
                  "name": "dirac"},
        "symbol": [(0, 1, [[0, -1j], [1j, 0]]), (1, 0, [[0, 1], [1, 0]]),
                   (0, 0, [[1, 0], [0, -1]])],
        "boundary": {"B1": [[0], [1]], "M": -3.0, "A0": 1 + 0j, "K": 2.0,
                     "ell": 0.5, "aminus": -1.0, "aplus": 1.0, "a": 2.0,
                     "side": "interface", "family": "decoupled",
                     "B0": 3 - 2j, "A1": [[1, 2], [3, 4]]},
        "numerics": {"lam_resolution": 160.0, "k_resolution": 161.0,
                     "k_window": 3.0, "tol": 1e-4},
        "task": {"gap_hi": 1.0, "level": 0.25, "gap_lo": -1.0}}


def test_parse_skips_comments_and_blank_lines():
    data = parse("# header\n[model]\nname = dirac  # builtin\nm = 1\n")
    assert data.model == {"name": "dirac", "m": 1.0}


def test_parse_rejects_unknown_section():
    with pytest.raises(ModelFileError):
        parse("[lattice]\nname = dirac\n")


def test_parse_rejects_unknown_key():
    with pytest.raises(ModelFileError):
        parse("[model]\nname = dirac\nmass = 1\n")
    with pytest.raises(ModelFileError):
        parse("[model]\nname = dirac\n[numerics]\nstep = 2\n")


def test_parse_rejects_duplicates():
    with pytest.raises(ModelFileError):
        parse("[model]\nname = dirac\nm = 1\nm = 2\n")
    with pytest.raises(ModelFileError):
        parse("[model]\nname = dirac\n[model]\nm = 1\n")


def test_parse_rejects_content_before_section():
    with pytest.raises(ModelFileError):
        parse("name = dirac\n[model]\n")


def test_parse_rejects_bad_symbol_terms():
    with pytest.raises(ModelFileError):
        parse("[symbol]\n1 : 1\n")  # one power only
    with pytest.raises(ModelFileError):
        parse("[symbol]\n-1 0 : 1\n")  # negative power
    with pytest.raises(ModelFileError):
        parse("[symbol]\n1 0 : 1 2 3\n")  # not square
    with pytest.raises(ModelFileError):
        parse("[symbol]\nno colon here\n")


def test_parse_requires_some_content():
    with pytest.raises(ModelFileError):
        parse("[numerics]\ntol = 1e-6\n")


# ---------------------------------------------------------------------------
# building


def test_build_builtin_with_family():
    model, bc, numerics, task = build(parse(TWO_BAND_FILE))
    assert model.name == "dirac"
    assert model.params["m"] == 1.0
    assert bc.label == "a=2"
    assert numerics["tol"] == 1e-6  # default
    assert numerics["k_window"] == 3.0
    assert numerics["k_resolution"] == 161
    assert task["level"] == 0.0
    assert task["side"] == "halfline"


def test_build_numeric_defaults():
    model, bc, numerics, task = build(parse("[model]\nname = laplacian\n"))
    assert bc is None
    assert numerics["tol"] == 1e-6
    assert numerics["k_resolution"] == 801
    assert numerics["lam_resolution"] == 400
    assert task["level"] == model.fiducial_E


@pytest.mark.parametrize("text, k_window", [
    ("[model]\nname = laplacian\n", 20.0),     # no declared gap
    ("[model]\nname = dirac\nm = 1\n", 20.0),  # gap width 2
    ("[model]\nname = dirac\nm = 3\n", 60.0),  # gap width 6
    (INLINE_SYMBOL_FILE.replace("gap_hi = 1", "gap_hi = 7"), 80.0),
], ids=["laplacian", "dirac-m1", "dirac-m3", "inline-gap"])
def test_build_k_window_default_scales_with_the_declared_gap(text,
                                                             k_window):
    numerics = build(parse(text))[2]
    assert numerics["k_window"] == k_window


def test_build_gap_window_of_every_model():
    text = ("[model]\nname = dirac\nm = 1\n"
            "[task]\ngap_lo = -0.5\ngap_hi = 0.5\n")
    gap = build(parse(text))[3]["gap"]
    assert (gap.lo, gap.hi, gap.provenance) == (-0.5, 0.5, "model file")
    assert build(parse("[model]\nname = dirac\nm = 1\n"))[3]["gap"] is None


def test_parse_names_the_key_of_a_non_finite_value():
    with pytest.raises(ModelFileError, match=r"line 5: \[task\] level = nan"):
        parse("[model]\nname = dirac\nm = 1\n[task]\nlevel = nan\n")


def test_build_passes_complex_family_values_as_written():
    # every family parameter is real: a complex literal with zero imaginary
    # part is a real number, any other is rejected when the file is parsed
    text = ("[model]\nname = laplacian\n"
            "[boundary]\nfamily = robin\nK = 1+0i\nM = 1\n")
    assert build(parse(text))[1].label == "robin(K=1,ell=0,M=1)"
    with pytest.raises(ModelFileError,
                       match=r"line 5: \[boundary\] K = 1\+1i: key 'K' must "
                             r"be real"):
        parse(text.replace("1+0i", "1+1i"))


def test_build_interface_side():
    text = ("[model]\nname = dirac\nm = 1\nm_minus = -1\n"
            "[boundary]\nfamily = transparent\nside = interface\n")
    model, bc, numerics, task = build(parse(text))
    assert task["side"] == "interface"
    assert bc.label == "transparent"


def test_build_inline_symbol_is_bulk_only():
    model, bc, numerics, task = build(parse(INLINE_SYMBOL_FILE))
    assert model.name == "custom"
    assert bc is None
    assert not model.edge_enabled
    assert model.declared_gap.lo == -1.0 and model.declared_gap.hi == 1.0
    # the inline terms reproduce the 2x2 two-band symbol
    H = model.symbol(0.0, 0.0)
    assert np.allclose(H, np.diag([1.0, -1.0]))


def test_build_rejects_inline_symbol_with_builtin_name():
    with pytest.raises(ModelFileError):
        build(parse("[model]\nname = dirac\n[symbol]\n0 0 : 1\n"))


def test_build_rejects_family_with_poly_matrices():
    text = ("[model]\nname = laplacian\n"
            "[boundary]\nfamily = dirichlet\nA0 = 1\nB0 = 0\n")
    with pytest.raises(ModelFileError):
        build(parse(text))


def test_build_rejects_boundary_without_family_or_matrices():
    text = "[model]\nname = dirac\nm = 1\n[boundary]\nside = halfline\n"
    with pytest.raises(ModelFileError):
        build(parse(text))


def test_build_rejects_unknown_builtin():
    with pytest.raises(ModelFileError):
        build(parse("[model]\nname = hofstadter\n"))


def test_build_rejects_missing_name():
    with pytest.raises(ModelFileError):
        build(parse("[model]\nm = 1\n"))


def test_build_rejects_bad_family_parameters():
    text = "[model]\nname = dirac\nm = 1\n[boundary]\nfamily = a\nell = 2\n"
    with pytest.raises(ModelFileError):
        build(parse(text))


def test_build_rejects_family_value_of_wrong_shape():
    # a family parameter is a real scalar, so a matrix fails to parse
    text = ("[model]\nname = laplacian\n"
            "[boundary]\nfamily = robin\nK = 1 2 ; 3 4\nM = 1\n")
    with pytest.raises(ModelFileError, match=r"line 5: \[boundary\] "
                                             r"K = 1 2 ; 3 4: bad number"):
        parse(text)


def test_build_explicit_condition_matrices(lap_model):
    text = ("[model]\nname = laplacian\n"
            "[boundary]\nA0 = 1\nA1 = 2\nB0 = -1\n")
    model, bc, numerics, task = build(parse(text))
    assert bc.label == "file(A,B)"
    A, B = bc.ab_at(0.5)
    assert np.allclose(A, [[2.0]])  # 1 + 2k at k = 0.5
    assert np.allclose(B, [[-1.0]])


def test_build_rejects_one_sided_explicit_matrices():
    text = "[model]\nname = laplacian\n[boundary]\nA0 = 1\n"
    with pytest.raises(ModelFileError):
        build(parse(text))


def test_build_duplicate_symbol_term_rejected():
    text = "[symbol]\n0 0 : 1\n0 0 : 2\n"
    with pytest.raises(ModelFileError):
        build(parse(text))


def test_build_inconsistent_symbol_sizes_rejected():
    text = "[symbol]\n0 0 : 1\n1 0 : 0 1 ; 1 0\n"
    with pytest.raises(ModelFileError):
        build(parse(text))
