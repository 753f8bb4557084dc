"""Shared fixtures and helpers for the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pe3d
from pe3d.fields import HorizontalField
from pe3d.grid import GridSpec


def run_with_blas_threads(script: str, threads: str) -> str:
    """The stdout of ``script`` run by a fresh interpreter with this
    checkout's pe3d and OPENBLAS_NUM_THREADS=threads: a fresh process per
    thread count, since OpenBLAS reads it at load."""
    src = str(Path(pe3d.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True).stdout


@pytest.fixture(scope="session")
def grid8() -> GridSpec:
    return GridSpec(n1=8, n2=8, nz=8)


@pytest.fixture(scope="session")
def grid12() -> GridSpec:
    return GridSpec(L1=1.5, L2=0.8, h=1.2, n1=12, n2=10, nz=8)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20240824)


def raw_field(grid: GridSpec, rng: np.random.Generator) -> HorizontalField:
    """A raw Gaussian field with no boundary or constraint structure."""
    return HorizontalField(rng.standard_normal((2,) + grid.shape), grid)


# the 1D difference stencils written with np.moveaxis round trips: the
# reference, independent of the cached matrices of pe3d.grid, that the
# stencil builders must reproduce bit for bit and the applied operators to
# rounding

def ref_sbp(f, d, axis):
    f = np.moveaxis(f, axis, 0)
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * d)
    out[0] = (f[1] - f[0]) / d
    out[-1] = (f[-1] - f[-2]) / d
    return np.moveaxis(out, 0, axis)


def ref_onesided2(f, d, axis):
    f = np.moveaxis(f, axis, 0)
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * d)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * d)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * d)
    return np.moveaxis(out, 0, axis)


def ref_second_diff(f, d, axis, top):
    f = np.moveaxis(f, axis, 0)
    out = np.empty_like(f)
    d2 = d * d
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / d2
    out[0] = -2.0 * f[0] / d2
    if top == "dirichlet":
        out[-1] = -2.0 * f[-1] / d2
    else:
        out[-1] = 2.0 * (f[-2] - f[-1]) / d2
    return np.moveaxis(out, 0, axis)


#: operator kind of pe3d.grid.STENCILS -> its reference along an axis
REFERENCES = {
    "sbp": ref_sbp,
    "onesided2": ref_onesided2,
    "dirichlet": lambda f, d, axis: ref_second_diff(f, d, axis, "dirichlet"),
    "neumann": lambda f, d, axis: ref_second_diff(f, d, axis, "neumann"),
}
