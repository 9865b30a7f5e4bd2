"""Shared fixtures: built-in model descriptors, the decaying solutions of a
fiber at one momentum, and an in-process CLI runner.

Randomized checks use hypothesis with a derandomized profile so every run
sees the same examples.
"""
import io
import sys
from contextlib import redirect_stdout, redirect_stderr

import numpy as np
import pytest

from bec.extension import _basis_entries, _check_codes
from bec.models import build_model

try:
    from hypothesis import HealthCheck, settings

    settings.register_profile(
        "bec",
        derandomize=True,
        deadline=None,
        max_examples=20,
        suppress_health_check=list(HealthCheck),
    )
    settings.load_profile("bec")
except ImportError:  # pragma: no cover - only the property file needs it
    pass


@pytest.fixture(scope="session")
def lap_model():
    return build_model("laplacian")


@pytest.fixture(scope="session")
def dirac_model():
    return build_model("dirac", m=1.0)


@pytest.fixture(scope="session")
def dirac_interface_model():
    return build_model("dirac", m=1.0, m_minus=-1.0)


@pytest.fixture(scope="session")
def regdirac_model():
    return build_model("regdirac", m=1.0, eps=0.1)


@pytest.fixture(scope="session")
def shallow_model():
    return build_model("shallow", f=1.0, nu=0.1)


def decaying_basis(F, z, side):
    """Exponents (m,) and amplitudes (m, N) of the solutions of the
    one-sided, one-row fiber F at z that decay on y > 0 (side 'right') or on
    y < 0 ('left'); a failing basis raises its typed error."""
    Ds = F.sides[0]
    mus, phis, _, code = _basis_entries(
        np.moveaxis(Ds, 0, -1), F.ks, np.array([z]),
        1.0 if side == "right" else -1.0)
    _check_codes(code, F.ks)
    return mus[:, 0], phis[..., 0].T


def run_cli(argv):
    """Run the console entry point in-process.

    Returns (exit_code, stdout_text, stderr_text); SystemExit from argparse
    is converted into its exit code.
    """
    from bec.cli import main

    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def cli():
    return run_cli
