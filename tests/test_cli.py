"""End-to-end tests of the command-line front end, run in-process.

Each invocation asserts on the exit code and on stable fragments of the
rendered report; heavy recomputations reuse small momentum windows and
coarse resolutions to stay fast.
"""
import argparse
import warnings
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

DIRAC_A2_FILE = ("[model]\nname = dirac\nm = 1\n\n"
                 "[boundary]\nfamily = a\na = 2\n\n")
DIRAC_A2_FLAGS = ["--model", "dirac", "--param", "m=1,a=2", "--bc", "a"]


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


@pytest.mark.parametrize("argv", [
    ["bulk", "--model", "laplacian", "--level", "3"],
    ["bulk", "--model", "dirac", "--param", "m=1", "--level", "1.5"],
    # just past a band edge at k = 0
    ["bulk", "--model", "laplacian", "--level", "0.0001"],
    ["bulk", "--model", "dirac", "--param", "m=1", "--level", "1.0001"],
    # outside m = 1's declared gap, so the search finds the band
    ["relative-chern", "--model", "dirac", "--param", "m=1",
     "--model2", "dirac", "--param2", "m=-1", "--level", "1.5"],
    # inside the declared gap of the band minimum at k = 0, but above the
    # band edge off k = 0: sqrt(3)/2 = 0.866 and sqrt(23)/3 = 1.599
    ["bulk", "--model", "shallow", "--param", "f=1,nu=1", "--level", "0.9"],
    ["bulk", "--model", "regdirac", "--param", "m=4,eps=-1.5", "--level",
     "2"],
])
def test_bulk_rejects_level_inside_a_continuous_band(argv):
    # no sample lands on the level, but a band's samples lie on both sides
    code, out, err = run_cli(argv)
    assert code == 2
    assert "bulk band passes through" in err
    assert out == ""


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
                              "--bc", "robin", "--param", "K=1,ell=2,M=1"])
    assert code == 0, err
    assert "winding = -1 (resid" in out


def test_winding_relative_to_reference():
    code, out, err = run_cli(["winding", "--model", "laplacian",
                              "--bc", "robin", "--param", "K=1,ell=2,M=1",
                              "--bc-ref", "dirichlet"])
    assert code == 0, err
    assert "relative winding = -1 (resid" in out


def test_winding_names_an_inadmissible_condition(tmp_path):
    # A = 1 + 2ik, B = -1: A B^dag is Hermitian at k = 0 only
    path = tmp_path / "inadmissible.model"
    path.write_text("[model]\nname = laplacian\n\n"
                    "[boundary]\nA0 = 1\nA1 = 2i\nB0 = -1\n")
    code, out, err = run_cli(["winding", "--model", str(path)])
    assert code == 2
    assert "A B^dag not Hermitian at k=100 (" in err


def test_laplacian_has_no_klm_family():
    code, out, err = run_cli(["winding", "--model", "laplacian",
                              "--bc", "klm", "--param", "K=1,M=1"])
    assert code == 2
    assert "no boundary family 'klm' (have ['dirichlet', 'neumann', " \
        "'robin'])" in err


# ---------------------------------------------------------------------------
# edge commands


def test_edge_flow_two_band():
    code, out, err = run_cli(["edge", "flow", "--model", "dirac",
                              "--param", "m=1,a=2", "--bc", "a"])
    assert code == 0, err
    assert "SF = +1 (resid" in out
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
                              "--bc", "robin", "--param", "K=1,ell=2,M=1"])
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
                              "--tol", "1e-4"])
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


@pytest.mark.parametrize("command, flags", [
    (["verify"], ["--tol", "1e-3"]),
    (["edge", "flow"], []),
])
def test_crossing_beyond_the_k_window_is_counted_at_any_window(
        tmp_path, command, flags):
    # regdirac m = -1, a = 2: a band crosses the level at k = -5.81, beyond
    # a k window of 4, and again at k = 1.47.  The count runs over the whole
    # momentum line, so SF(bc) is the table's -2 = -1 (bulk) + -1 (relative
    # winding to dirichlet) whatever the model file's window.
    path = tmp_path / "regdirac.model"
    for k_window in ("4", "12"):
        path.write_text("[model]\nname = regdirac\nm = -1\neps = 0.1\n\n"
                        "[boundary]\nfamily = a\na = 2\n\n"
                        "[numerics]\nk_window = %s\n" % k_window)
        code, out, err = run_cli(command + ["--model", str(path)] + flags)
        assert code == 0, err
        if command == ["verify"]:
            assert "SF(bc) = -2 (resid" in out
            assert "identity SF(bc) - SF(ref) == relative winding: holds" \
                in out
            assert "identity SF(bc) == bulk + relative winding: holds" in out
        else:
            assert "SF = -2 (resid" in out
            assert "crossing: k = -5.80971, sign = -1" in out
            assert "crossing: k = 1.46544, sign = -1" in out


def test_level_on_the_bulk_edge_exits_2_naming_the_momentum():
    # the Laplacian's bulk spectrum starts at 0, reached at k = 0: the
    # decaying basis fails there and the count never skips a sample
    code, out, err = run_cli(["edge", "flow", "--model", "laplacian",
                              "--bc", "robin", "--param", "K=1,ell=2,M=1",
                              "--level", "0"])
    assert code == 2
    assert err.startswith("error: deficiency basis failed (a decay exponent "
                          "sits on the imaginary axis) at k=[0.]")
    assert out == ""


def test_flow_reports_its_residual_and_end_margins():
    # regdirac end eigenphases tend to 0 like 1/|k|: a shrink of 10 per
    # decade, from opposite sides on the two ends
    code, out, err = run_cli(["edge", "flow", "--model", "regdirac",
                              "--param", "m=-1,eps=0.1", "--bc", "a",
                              "--param", "a=2"])
    assert code == 0, err
    line, = [x for x in out.splitlines() if x.startswith("SF end phases: ")]
    assert line == ("SF end phases: k -> -inf +1.00e-03 (shrink 9.92 per "
                    "decade), k -> +inf -2.00e-03 (shrink 9.95 per decade)")


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
    # the k_window line of a model-file value, a flag and the default
    path = tmp_path / "two_band.model"
    path.write_text(TWO_BAND_FILE)
    for argv, line in (
            (["--model", str(path)], "k_window = 3  (model file [numerics])"),
            (["--model", str(path), "--k-window", "5"],
             "k_window = 5  (flag --k-window)"),
            (DIRAC_A2_FLAGS + ["--k-resolution", "81", "--lam-resolution",
                               "120"], "k_window = 20  (default)")):
        code, out, err = run_cli(["edge", "spectrum"] + argv + [
            "--out", str(tmp_path / "bands.csv")])
        assert code == 0, err
        assert out.endswith("tolerances:\n  %s\n" % line)


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
                              "--bc", "a", "--param", "a=2", "--bc-ref", "a"])
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
    (["edge", "flow"], COMMON + BC + ["--level"]),
    (["winding"], COMMON + BC + ["--bc-ref", "--ref-param"]),
    (["verify"], COMMON + BC + ["--bc-ref", "--ref-param", "--level",
                                "--tol"]),
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
] + [words + DIRAC_A2_FLAGS + [flag, "161"] for words in (["edge", "flow"],
                                                          ["verify"])
     for flag in GRID] + [
    words + DIRAC_A2_FLAGS + ["--k-window", "8"]
    for words in (["edge", "flow"], ["winding"], ["verify"])],
    ids=["winding-tol", "winding-level", "edge-flow-bc-ref",
         "bulk-k-resolution", "relative-chern-k-window",
         "edge-flow-k-resolution", "edge-flow-lam-resolution",
         "verify-k-resolution", "verify-lam-resolution",
         "edge-flow-k-window", "winding-k-window", "verify-k-window"])
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


def test_whitespace_inside_a_number_exits_2(tmp_path):
    path = tmp_path / "spaced.model"
    path.write_text(DIRAC_A2_FILE.replace("a = 2", "a = 1 2"))
    code, out, err = run_cli(["winding", "--model", str(path)])
    assert code == 2
    assert "[boundary] a = 1 2: bad number literal '1 2': whitespace" in err


def test_model_keys_in_ref_param_are_rejected():
    code, out, err = run_cli(["winding", "--model", "laplacian",
                              "--bc", "robin", "--param", "K=1,ell=2,M=1",
                              "--bc-ref", "dirichlet", "--ref-param", "m=5"])
    assert code == 2
    assert "--ref-param takes boundary parameters only" in err


@pytest.mark.parametrize("flag, key, argv", [
    ("--param", "a", ["winding", "--model", "dirac", "--param", "m=1",
                      "--bc", "a", "--param", "a=nan"]),
    ("--param", "m", ["verify", "--model", "dirac", "--param", "m=inf",
                      "--bc", "a", "--param", "a=2"]),
    ("--ref-param", "a", ["winding", "--model", "dirac", "--param", "m=1",
                          "--bc", "a", "--param", "a=2", "--bc-ref", "a",
                          "--ref-param", "a=nan"]),
    ("--param2", "m", ["relative-chern", "--model", "dirac", "--param", "m=1",
                       "--model2", "dirac", "--param2", "m=-inf"]),
], ids=["boundary-key", "model-key", "ref-param", "param2"])
def test_non_finite_param_exits_2_naming_the_key(flag, key, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(argv)
    assert code == 2
    assert err.startswith("error: %s: non-finite value" % flag)
    assert "for key %r" % key in err
    assert "Traceback" not in err and not caught


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


# every value modelfile.build rejects: (id, key, the flags on the builtin
# name, or None, the model file, or None, and the flags on the file).  A
# non-finite number is no model-file literal, so it is a flag on the file.
REJECTED = [
    ("tol-0", "tol", ["--tol", "0"], "[numerics]\ntol = 0\n", []),
    ("tol-negative", "tol", ["--tol=-1"], "[numerics]\ntol = -1\n", []),
    ("tol-nan", "tol", ["--tol", "nan"], "", ["--tol", "nan"]),
    ("k_window-0", "k_window", ["--k-window", "0"],
     "[numerics]\nk_window = 0\n", []),
    ("k_window-negative", "k_window", ["--k-window=-3"],
     "[numerics]\nk_window = -3\n", []),
    ("k_window-nan", "k_window", ["--k-window", "nan"], "",
     ["--k-window", "nan"]),
    ("k_resolution-0", "k_resolution", ["--k-resolution", "0"],
     "[numerics]\nk_resolution = 0\n", []),
    ("k_resolution-1", "k_resolution", ["--k-resolution", "1"],
     "[numerics]\nk_resolution = 1\n", []),
    ("k_resolution-fraction", "k_resolution", None,
     "[numerics]\nk_resolution = 160.9\n", []),
    ("lam_resolution-1", "lam_resolution", ["--lam-resolution", "1"],
     "[numerics]\nlam_resolution = 1\n", []),
    ("level-nan", "level", ["--level", "nan"], "", ["--level", "nan"]),
    ("level-inf", "level", ["--level", "inf"], "", ["--level", "inf"]),
    ("level-minus-inf", "level", ["--level=-inf"], "", ["--level=-inf"]),
    ("gap_lo-alone", "gap_lo", None, "[task]\ngap_lo = -0.5\n", []),
    ("gap_hi-alone", "gap_hi", None, "[task]\ngap_hi = 0.5\n", []),
]


def _rejected_runs():
    for name, key, flags, text, file_flags in REJECTED:
        if flags is not None:
            yield pytest.param(key, DIRAC_A2_FLAGS + flags, None,
                               id=name + "-builtin")
        yield pytest.param(key, file_flags, DIRAC_A2_FILE + text,
                           id=name + "-file")
    yield pytest.param("K", [], "[model]\nname = laplacian\n\n[boundary]\n"
                       "family = robin\nK = 1+2i\nM = 1\n",
                       id="robin-K-complex-file")


@pytest.mark.parametrize("key, argv, text", _rejected_runs())
def test_rejected_value_exits_2_naming_the_key(tmp_path, key, argv, text):
    if text is not None:
        path = tmp_path / "bad.model"
        path.write_text(text)
        argv = ["--model", str(path)] + argv
    # verify takes no grid flags: the k window and the resolutions go to
    # edge spectrum
    command = ["edge", "spectrum"] if key.startswith("k_") \
        or key.endswith("resolution") else ["verify"]
    code, out, err = run_cli(command + argv)
    assert code == 2
    assert err.startswith("error: ") and "%s = " % key in err
    assert out == ""


@pytest.mark.parametrize("section, key", [("numerics", "tol"),
                                          ("task", "level")])
def test_relative_chern_rejects_numerics_and_task_of_model2(tmp_path,
                                                            section, key):
    # one pairing has one tol and one level, both taken from --model
    path = tmp_path / "second.model"
    path.write_text("[model]\nname = dirac\nm = -1\n\n[%s]\n%s = 0.01\n"
                    % (section, key))
    code, out, err = run_cli(["relative-chern", "--model", "dirac",
                              "--param", "m=1", "--model2", str(path)])
    assert code == 2
    assert "error: --model2 %s: [numerics] and [task] keys (%s)" \
        % (path, key) in err


def test_bad_model_file_exits_2(tmp_path):
    path = tmp_path / "bad.model"
    path.write_text("[model]\nname = dirac\nmass = 1\n")
    code, out, err = run_cli(["bulk", "--model", str(path)])
    assert code == 2
    assert "error:" in err
