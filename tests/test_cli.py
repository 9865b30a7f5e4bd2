"""End-to-end tests of the command-line front end, run in-process.

Each invocation asserts on the exit code and on stable fragments of the
rendered report; heavy recomputations reuse small momentum windows and
coarse resolutions to stay fast.
"""
import xml.etree.ElementTree as ET

import pytest

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


def test_bad_model_file_exits_2(tmp_path):
    path = tmp_path / "bad.model"
    path.write_text("[model]\nname = dirac\nmass = 1\n")
    code, out, err = run_cli(["bulk", "--model", str(path)])
    assert code == 2
    assert "error:" in err
