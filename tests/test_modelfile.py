"""Tests of the model-file front end: strict parsing, normalized emission,
and construction of models / boundary conditions / numerics defaults.
"""
import numpy as np
import pytest

from bec.errors import ModelFileError
from bec.modelfile import (
    build,
    emit,
    format_complex,
    format_matrix,
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


def test_complex_literals_round_trip():
    for text, want in (("2", 2.0 + 0j), ("-0.5i", -0.5j), ("1+2i", 1.0 + 2j),
                       ("1-2i", 1.0 - 2j), ("i", 1j), ("-i", -1j)):
        z = parse_complex(text)
        assert z == want
        assert parse_complex(format_complex(z)) == z


def test_parse_complex_rejects_junk():
    with pytest.raises(ModelFileError):
        parse_complex("1+2j+3")
    with pytest.raises(ModelFileError):
        parse_complex("abc")


def test_parse_real_rejects_imaginary_part():
    assert parse_real("2.5", "m") == 2.5
    with pytest.raises(ModelFileError):
        parse_real("1+2i", "m")


def test_matrix_literals_round_trip():
    M = np.array([[1.0, -2.0j], [0.5 + 0.5j, 3.0]])
    back = parse_matrix(format_matrix(M))
    assert np.allclose(back, M)


def test_parse_matrix_rejects_ragged_rows():
    with pytest.raises(ModelFileError):
        parse_matrix("1 2 ; 3")


# ---------------------------------------------------------------------------
# parsing and emission


def test_parse_emit_idempotent():
    for text in (TWO_BAND_FILE, INLINE_SYMBOL_FILE):
        once = emit(parse(text))
        twice = emit(parse(once))
        assert once == twice


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
M = 1 0 ; 0 2i
A0 = 1
L = -0.5i
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

EVERY_KEY_EMITTED = """[model]
name = dirac
m = 1
eps = 0.10000000000000001
m_minus = -1
f = 1
nu = 0.10000000000000001

[symbol]
0 0 : 1 0 ; 0 -1
0 1 : 0 -1i ; 1i 0
1 0 : 0 1 ; 1 0

[boundary]
family = decoupled
side = interface
a = 2
aplus = 1
aminus = -1
ell = 0.5
K = 2
L = -0.5i
M = 1 0 ; 0 2i
A0 = 1
A1 = 1 2 ; 3 4
B0 = 3-2i
B1 = 0 ; 1

[numerics]
tol = 0.0001
k_window = 3
k_resolution = 161
lam_resolution = 160

[task]
level = 0.25
gap_lo = -1
gap_hi = 1
"""


def test_emit_order_of_every_section_and_key():
    assert emit(parse(EVERY_KEY_FILE)) == EVERY_KEY_EMITTED
    assert emit(parse(EVERY_KEY_EMITTED)) == EVERY_KEY_EMITTED


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
    # the parameters fit the family's signature; its body rejects the value
    text = ("[model]\nname = laplacian\n"
            "[boundary]\nfamily = robin\nK = 1 2 ; 3 4\nM = 1\n")
    with pytest.raises(ModelFileError, match="family 'robin'"):
        build(parse(text))


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
