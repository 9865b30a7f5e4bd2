"""The parts of bec that the benchmark in perfbench/ calls.

perfbench/tracing.py and perfbench/jobs.py are loaded from their files as
they are, and their entry points are called once on small inputs, so that a
rename or signature change that would break the benchmark fails here.  The
copies of the summary tables and their numerics in perfbench/jobs.py must
equal those in bec.cli.
"""
import importlib.util
import os

import numpy as np
import pytest

import bec
from bec import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, os.path.join(PERFBENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
jobs = _load("jobs")


def test_counting_wrappers_install_and_leave():
    originals = tracing.counted_names(bec)
    tracer = tracing.Tracer()
    with tracing.counting(bec, tracer):
        assert tracing.counted_names(bec) != originals
        job = jobs.build_jobs(bec)[1][jobs.REFERENCE_JOBS["winding"]]
        got, ok = job.check(tracer)
    assert ok, got
    assert tracing.counted_names(bec) == originals
    assert tracer.counts["phase_samples"] > 0


def test_build_jobs_builds_every_workload():
    pools, by_name = jobs.build_jobs(bec)
    assert sorted(pools) == ["bulk-pairing", "tables-flow", "tables-winding"]
    assert set(jobs.REFERENCE_JOBS.values()) <= set(by_name)
    assert all(slot for slots in pools.values() for slot in slots)


@pytest.mark.parametrize("name", ["laplacian", "dirac", "regdirac",
                                  "interface"])
def test_probe_entry_points(name):
    # the calls of tracing.probes, once each, on its inputs
    model, side, (family, kw), numerics = tracing._probe_inputs(bec,
                                                                jobs)[name]
    k_window, _, lam_res = numerics
    T, fam = model.triple(side), model.fiber_family(side)
    bc = model.make_bc(family, **kw)
    F = model.fiber(tracing.K_PROBE, side)
    gap = model.declared_gap or bec.find_gap(model.symbol, model.gap_around,
                                             k_window)
    window = bec.GapWindow(*model.scan_window(tracing.K_PROBE, gap))
    bec.edge_eigenvalues(bc, T, F, window, lam_resolution=lam_res)
    ks = np.linspace(-0.5 * k_window, 0.5 * k_window, 2)
    assert bec.vn_unitary_family(bc, T, fam, ks).shape == (2, T.dimV, T.dimV)
    assert bec.vn_unitary(bc, T, F).shape == (T.dimV, T.dimV)
    assert model.fiber(tracing.K_PROBE).k == tracing.K_PROBE


@pytest.mark.parametrize("name", [
    "LAPLACE_ROWS", "LAPLACE_AFFILIATION_ROWS", "DIRAC_ROWS", "REGDIRAC_ROWS",
    "REGDIRAC_BULK", "LAPLACE_NUMERICS", "DIRAC_NUMERICS",
    "REGDIRAC_NUMERICS"])
def test_table_copies_match_the_cli(name):
    assert getattr(jobs, name) == getattr(cli, name)
