"""End-to-end tests of the command-line front end, run in-process.

Each invocation asserts on the exit code and on stable fragments of the
rendered report; heavy recomputations reuse small momentum windows and
coarse resolutions to stay fast.
"""
import argparse
import xml.etree.ElementTree as ET

import pytest

from bec.cli import make_parser
from conftest import run_cli

FOURTH_ORDER_INLINE = """
[symbol]
1 0 : 0 1 ; 1 0
0 1 : 0 -1i ; 1i 0
0 0 : -1 0 ; 0 1
2 0 : 0.1 0 ; 0 -0.1
0 2 : 0.1 0 ; 0 -0.1

[task]
level = 0
gap_lo = -1
gap_hi = 1
"""

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


# ---------------------------------------------------------------------------
# bulk commands


def test_bulk_scalar_model_pairs_to_zero():
    code, out, err = run_cli(["bulk", "--model", "laplacian",
                              "--level", "-1", "--tol", "1e-4"])
    assert code == 0, err
    assert "chern = 0.000 (resid" in out
    assert "level = -1" in out


def test_bulk_rejects_level_on_flat_band():
    # the rotating shallow-water model keeps a flat band at zero, so the
    # default level only works away from it
    code, out, err = run_cli(["bulk", "--model", "shallow",
                              "--param", "f=1,nu=0.1", "--level", "0"])
    assert code == 2
    assert "error:" in err


def test_bulk_two_band_reports_non_integer():
    code, out, err = run_cli(["bulk", "--model", "dirac", "--param", "m=1",
                              "--tol", "1e-4"])
    assert code == 0, err
    assert "NON-INTEGER" in out
    assert "WARN" in out


def test_bulk_inline_symbol_file(tmp_path):
    path = tmp_path / "custom.model"
    path.write_text(FOURTH_ORDER_INLINE)
    code, out, err = run_cli(["bulk", "--model", str(path),
                              "--tol", "1e-4"])
    assert code == 0, err
    assert "chern = -1.000 (resid" in out
    assert "model: custom" in out


def test_relative_chern_two_band_masses():
    code, out, err = run_cli(["relative-chern", "--model", "dirac",
                              "--param", "m=1", "--model2", "dirac",
                              "--param2", "m=-1", "--tol", "1e-4"])
    assert code == 0, err
    assert "relative chern = 1.000 (resid" in out
    assert "second model: dirac(m=-1, m_minus=-1)" in out


# ---------------------------------------------------------------------------
# winding commands


def test_winding_robin():
    code, out, err = run_cli(["winding", "--model", "laplacian",
                              "--bc", "robin", "--param", "K=1,ell=2,M=1",
                              "--k-window", "8"])
    assert code == 0, err
    assert "winding = -1 (resid" in out


def test_winding_relative_to_reference():
    code, out, err = run_cli(["winding", "--model", "laplacian",
                              "--bc", "robin", "--param", "K=1,ell=2,M=1",
                              "--bc-ref", "dirichlet", "--k-window", "8"])
    assert code == 0, err
    assert "relative winding = -1 (resid" in out


def test_winding_names_an_inadmissible_condition(tmp_path):
    # A = 1 + 2ik, B = -1: A B^dag is Hermitian at k = 0 only
    path = tmp_path / "inadmissible.model"
    path.write_text("[model]\nname = laplacian\n\n"
                    "[boundary]\nA0 = 1\nA1 = 2i\nB0 = -1\n")
    code, out, err = run_cli(["winding", "--model", str(path)])
    assert code == 2
    assert "A B^dag not Hermitian at k=-10000" in err


def test_laplacian_has_no_klm_family():
    code, out, err = run_cli(["winding", "--model", "laplacian",
                              "--bc", "klm", "--param", "K=1,L=0,M=1"])
    assert code == 2
    assert "no boundary family 'klm' (have ['dirichlet', 'neumann', " \
        "'robin'])" in err


# ---------------------------------------------------------------------------
# edge commands


def test_edge_flow_two_band():
    code, out, err = run_cli(["edge", "flow", "--model", "dirac",
                              "--param", "m=1,a=2", "--bc", "a",
                              "--k-window", "3", "--k-resolution", "161",
                              "--lam-resolution", "160"])
    assert code == 0, err
    assert "SF = +1" in out
    assert "crossing: k = -0.75" in out
    assert "affiliated" in out


def test_edge_spectrum_writes_csv_and_svg(tmp_path):
    csv_path = tmp_path / "bands.csv"
    svg_path = tmp_path / "bands.svg"
    args = ["edge", "spectrum", "--model", "dirac", "--param", "m=1,a=1",
            "--bc", "a", "--k-window", "2", "--k-resolution", "81",
            "--lam-resolution", "120", "--out", str(csv_path),
            "--plot", str(svg_path)]
    code, out, err = run_cli(args)
    assert code == 0, err
    text = csv_path.read_text()
    assert text.startswith("band_id,k,lambda\n")
    assert "csv: %s" % csv_path in out
    assert "svg: %s" % svg_path in out
    root = ET.fromstring(svg_path.read_text())
    assert root.tag.endswith("svg")
    # byte-identical on a rerun
    code2, _, _ = run_cli(args)
    assert code2 == 0
    assert csv_path.read_text() == text


def test_edge_spectrum_warns_when_not_affiliated(tmp_path):
    code, out, err = run_cli(["edge", "spectrum", "--model", "laplacian",
                              "--bc", "robin", "--param", "K=0,ell=1,M=1",
                              "--k-window", "2", "--k-resolution", "81",
                              "--lam-resolution", "120",
                              "--out", str(tmp_path / "b.csv")])
    assert code == 0, err
    assert "WARN: condition is not certified affiliated" in out


# ---------------------------------------------------------------------------
# verify command


def test_verify_passes_for_affiliated_robin():
    code, out, err = run_cli(["verify", "--model", "laplacian",
                              "--bc", "robin", "--param", "K=1,ell=2,M=1",
                              "--k-window", "8", "--k-resolution", "241",
                              "--lam-resolution", "200"])
    assert code == 0, err
    assert "SF(bc) = -1" in out
    assert "relative winding = -1" in out
    assert "identity SF(bc) - SF(ref) == relative winding: holds" in out
    assert "identity SF(bc) == bulk + relative winding: holds" in out
    assert "PASS" in out


def test_verify_reports_non_integer_chern_warning():
    # the Chern warning of the bulk term lands in the report, not nowhere
    code, out, err = run_cli(["verify", "--model", "dirac",
                              "--param", "m=1,a=2", "--bc", "a",
                              "--k-window", "8", "--k-resolution", "241",
                              "--lam-resolution", "200", "--tol", "1e-4"])
    assert code == 0, err
    assert "[non-integer; bulk identity skipped]" in out
    assert "WARN: Chern pairing 0.500042 is not close to an integer" in out
    assert "PASS" in out


def test_verify_skips_unaffiliated_condition():
    code, out, err = run_cli(["verify", "--model", "laplacian",
                              "--bc", "robin", "--param", "K=0,ell=1,M=1"])
    assert code == 2
    assert "SKIPPED" in out
    assert "not affiliated" in out


# ---------------------------------------------------------------------------
# model files and flag overrides


def test_model_file_drives_edge_flow(tmp_path):
    path = tmp_path / "two_band.model"
    path.write_text(TWO_BAND_FILE)
    code, out, err = run_cli(["edge", "flow", "--model", str(path)])
    assert code == 0, err
    assert "SF = +1" in out


def test_flags_override_model_file(tmp_path):
    path = tmp_path / "two_band.model"
    path.write_text(TWO_BAND_FILE)
    code, out, err = run_cli(["edge", "flow", "--model", str(path),
                              "--param", "a=-2"])
    assert code == 0, err
    assert "SF = +0" in out


def test_tolerance_provenance_reported(tmp_path):
    path = tmp_path / "two_band.model"
    path.write_text(TWO_BAND_FILE)
    csv_path = tmp_path / "bands.csv"
    code, out, err = run_cli(["edge", "spectrum", "--model", str(path),
                              "--out", str(csv_path)])
    assert code == 0, err
    assert "k_window = 3  (model file [numerics])" in out
    code, out, err = run_cli(["edge", "spectrum", "--model", str(path),
                              "--k-window", "2", "--out", str(csv_path)])
    assert code == 0, err
    assert "k_window = 2  (flag --k-window)" in out


def test_bc_flag_keeps_the_file_side(tmp_path):
    # --bc replaces the file's family and its parameters, not its side
    path = tmp_path / "interface.model"
    path.write_text("[model]\nname = dirac\nm = 1\nm_minus = -1\n\n"
                    "[boundary]\nfamily = transparent\nside = interface\n")
    argv = ["winding", "--model", str(path), "--bc", "decoupled",
            "--param", "aplus=1,aminus=1", "--bc-ref", "transparent"]
    code, out, err = run_cli(argv)
    assert code == 0, err
    assert "relative winding = +1 (resid" in out
    assert run_cli(argv + ["--side", "interface"]) == (code, out, err)


def test_builtin_name_and_model_file_agree(tmp_path):
    path = tmp_path / "dirac.model"
    path.write_text("[model]\nname = dirac\nm = 1\n\n"
                    "[boundary]\nfamily = a\na = 2\n\n"
                    "[numerics]\nk_window = 3\n")
    code, out, err = run_cli(["winding", "--model", "dirac", "--param", "m=1",
                              "--bc", "a", "--param", "a=2", "--bc-ref", "a",
                              "--k-window", "3"])
    assert code == 0, err
    assert "relative winding = +0 (resid" in out
    assert run_cli(["winding", "--model", str(path), "--bc-ref", "a"]) == \
        (code, out, err)


# ---------------------------------------------------------------------------
# flag sets

COMMON = ["--model", "--param", "--out"]
BC = ["--bc", "--side"]
GRID = ["--k-resolution", "--lam-resolution"]


def _subparser(words):
    parser = make_parser()
    for word in words:
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[word]
    return parser


@pytest.mark.parametrize("words, options", [
    (["bulk"], COMMON + ["--level", "--tol", "--k-window"]),
    (["relative-chern"], COMMON + ["--model2", "--param2", "--level",
                                   "--tol"]),
    (["edge", "spectrum"], COMMON + BC + GRID + ["--level", "--k-window",
                                                 "--plot"]),
    (["edge", "flow"], COMMON + BC + GRID + ["--level", "--k-window"]),
    (["winding"], COMMON + BC + ["--bc-ref", "--ref-param", "--k-window"]),
    (["verify"], COMMON + BC + GRID + ["--bc-ref", "--ref-param", "--level",
                                       "--tol", "--k-window"]),
    (["tables"], ["which", "--out"]),
], ids=["bulk", "relative-chern", "edge-spectrum", "edge-flow", "winding",
        "verify", "tables"])
def test_each_command_takes_the_flags_it_reads(words, options):
    parser = _subparser(words)
    got = [a.option_strings[0] if a.option_strings else a.dest
           for a in parser._actions if a.dest != "help"]
    assert sorted(got) == sorted(options)


@pytest.mark.parametrize("argv", [
    ["winding", "--model", "laplacian", "--bc", "dirichlet", "--tol", "1e-4"],
    ["winding", "--model", "laplacian", "--bc", "dirichlet", "--level", "1"],
    ["edge", "flow", "--model", "laplacian", "--bc", "dirichlet",
     "--bc-ref", "dirichlet"],
    ["bulk", "--model", "laplacian", "--k-resolution", "11"],
    ["relative-chern", "--model", "dirac", "--param", "m=1", "--model2",
     "dirac", "--param2", "m=-1", "--k-window", "3"],
], ids=["winding-tol", "winding-level", "edge-flow-bc-ref",
        "bulk-k-resolution", "relative-chern-k-window"])
def test_flags_a_command_does_not_read_exit_2(argv):
    code, out, err = run_cli(argv)
    assert code == 2
    assert "unrecognized arguments: %s" % argv[-2] in err
    assert out == ""


def test_quad_tol_reported_only_where_tol_is_a_flag(tmp_path):
    code, out, err = run_cli(["winding", "--model", "laplacian",
                              "--bc", "dirichlet"])
    assert code == 0, err
    assert "quad tol" not in out
    code, out, err = run_cli(["bulk", "--model", "laplacian",
                              "--level", "-1", "--tol", "1e-4"])
    assert code == 0, err
    assert "quad tol = 0.0001  (flag --tol)" in out


# ---------------------------------------------------------------------------
# error handling


def test_unknown_model_exits_2():
    code, out, err = run_cli(["bulk", "--model", "hofstadter"])
    assert code == 2
    assert "error:" in err


def test_unknown_param_key_exits_2():
    code, out, err = run_cli(["bulk", "--model", "dirac",
                              "--param", "mass=1"])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ["bulk", "--model", "dirac"],
    ["bulk", "--model", "dirac", "--param", "f=1"],
    ["relative-chern", "--model", "dirac", "--param", "m=1",
     "--model2", "dirac", "--param2", "m=-1,f=1"],
    ["edge", "flow", "--model", "regdirac", "--param", "m=1", "--bc", "a"],
    ["edge", "spectrum", "--model", "dirac", "--param", "m=1,nu=1",
     "--bc", "a"],
    ["winding", "--model", "dirac", "--param", "m=1", "--bc", "a",
     "--param", "K=1"],
    ["verify", "--model", "laplacian", "--bc", "dirichlet",
     "--param", "ell=1"],
], ids=["bulk", "bulk-unknown", "relative-chern", "edge-flow",
        "edge-spectrum", "winding", "verify"])
def test_missing_or_unknown_builder_parameter_exits_2(argv):
    # checked against the builder's signature: no TypeError traceback
    code, out, err = run_cli(argv)
    assert code == 2
    assert "error: bad parameters for" in err


def test_model_keys_in_ref_param_are_rejected():
    code, out, err = run_cli(["winding", "--model", "laplacian",
                              "--bc", "robin", "--param", "K=1,ell=2,M=1",
                              "--bc-ref", "dirichlet", "--ref-param", "m=5",
                              "--k-window", "8"])
    assert code == 2
    assert "--ref-param takes boundary parameters only" in err


def test_boundary_param_without_bc_exits_2():
    code, out, err = run_cli(["winding", "--model", "laplacian",
                              "--param", "K=1"])
    assert code == 2
    assert "error:" in err


def test_bulk_only_model_cannot_verify():
    code, out, err = run_cli(["verify", "--model", "shallow",
                              "--param", "f=1,nu=0.1",
                              "--bc", "dirichlet"])
    assert code == 2
    assert "error:" in err


def test_missing_required_flag_exits_2():
    code, out, err = run_cli(["bulk"])
    assert code == 2


def test_condition_of_wrong_size_exits_2(tmp_path):
    # a 2x2 interface condition against the half-plane triple
    for cmd in (["winding"], ["verify"], ["edge", "flow"]):
        code, out, err = run_cli(cmd + ["--model", "dirac", "--param", "m=1",
                                        "--bc", "transparent"])
        assert code == 2
        assert "error: transparent: a 2x2 condition does not fit the " \
            "halfline triple (dimV=1)" in err
    # coefficients of different sizes in one file are not broadcast
    path = tmp_path / "sizes.model"
    path.write_text("[model]\nname = dirac\nm = 1\nm_minus = -1\n\n"
                    "[boundary]\nside = interface\nA0 = 1 0 ; 0 1\n"
                    "A1 = 2\nB0 = 0 0 ; 0 0\n")
    code, out, err = run_cli(["winding", "--model", str(path)])
    assert code == 2
    assert "error: file(A,B): every A_j and B_j must be one p x p matrix, " \
        "got A0 2x2, A1 1x1, B0 2x2" in err


def test_bad_model_file_exits_2(tmp_path):
    path = tmp_path / "bad.model"
    path.write_text("[model]\nname = dirac\nmass = 1\n")
    code, out, err = run_cli(["bulk", "--model", str(path)])
    assert code == 2
    assert "error:" in err
