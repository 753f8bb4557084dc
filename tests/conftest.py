"""Shared fixtures and helpers for the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pe3d
from pe3d import dynamics
from pe3d.errors import InputError, SolverError
from pe3d.fields import HorizontalField, apply_bc
from pe3d.grid import GridSpec, laplacian_bc, weights3
from pe3d.linalg import weighted_cg
from pe3d.projection import project_H
from pe3d.sampling import mode_sum

#: absolute tolerance on the constraint residual of projected fields
PROJ_TOL = 1e-8


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


def count_calls_everywhere(monkeypatch, original) -> list:
    """Point every pe3d module attribute bound to ``original`` at a wrapper
    that records each call, so calls count whichever module's name for the
    function the caller uses; returns the list that grows by one per call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "pe3d" or name.startswith("pe3d.")):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


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


def generic_field(grid: GridSpec, seed: int) -> HorizontalField:
    """A smooth field in H outside the half of phase space that every mode
    sum lies in (mode sums are invariant under the point reflection
    v(x, y, z) -> -v(L1-x, L2-y, z)): a projected Gaussian field smoothed
    by three implicit diffusion solves at dt nu = 0.01."""
    v = apply_bc(raw_field(grid, np.random.default_rng(seed)))
    for _ in range(3):
        v = dynamics._implicit_diffusion(v, 0.01, 1.0, False)
    return project_H(v)


def scale_inverse_symbol(monkeypatch, factor: float) -> None:
    """Make the separable diffusion solve faulty: its symbol scaled by
    ``factor``, so its result is no longer the solve of the stencil
    operator."""
    real = dynamics._inverse_symbol
    monkeypatch.setattr(dynamics, "_inverse_symbol",
                        lambda grid, dt_nu: factor * real(grid, dt_nu))


def meshgrid(grid: GridSpec):
    """The node coordinates X, Y, Z, each of shape ``grid.shape``."""
    return np.meshgrid(grid.x(), grid.y(), grid.z(), indexing="ij")


# the operator A and the H inner product through the trapezoid weights: the
# oracles of the decay rate and of the projection's orthogonality

def inner_H(u: HorizontalField, w: HorizontalField) -> float:
    if u.data.shape != w.data.shape:
        raise InputError(f"field shapes differ: {u.data.shape} vs {w.data.shape}")
    vol = weights3(u.grid)
    return float(np.sum((u.u1 * w.u1 + u.u2 * w.u2) * vol))


def apply_A(v: HorizontalField) -> HorizontalField:
    """A = - (projection of the BC-aware Laplacian)."""
    return project_H(HorizontalField(-laplacian_bc(v.data, v.grid), v.grid))


def smallest_eigenvalue_A(grid: GridSpec) -> float:
    """Smallest eigenvalue of A by inverse power iteration from the lowest
    mode sum; each step is one implicit solve with apply_A (weighted CG),
    iterated until the Rayleigh quotient moves by at most 1e-8 relative,
    for at most 200 steps."""
    vol = weights3(grid)[None, :, :, :]

    def apply_op(data):
        return apply_A(HorizontalField(data, grid)).data

    x = project_H(mode_sum(grid, 1, np.ones(1))).data
    x /= np.sqrt(np.sum(vol * x * x))
    rho_old = np.inf
    for _ in range(200):
        y = weighted_cg(apply_op, x, vol, rel_tol=1e-10,
                        max_iter=50 * max(grid.n1, grid.n2, grid.nz) ** 2,
                        label="inverse-power")
        # Rayleigh quotient of the new iterate: <x, x> / <x, y> since Ay = x
        rho = float(np.sum(vol * x * x) / np.sum(vol * x * y))
        y = project_H(HorizontalField(y, grid)).data
        x = y / np.sqrt(np.sum(vol * y * y))
        if abs(rho - rho_old) <= 1e-8 * abs(rho):
            if rho <= 0:
                raise SolverError("inverse power iteration produced a nonpositive eigenvalue")
            return rho
        rho_old = rho
    raise SolverError("inverse power iteration did not converge", abs(rho - rho_old))


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


def ref_cumulative_trapezoid(f, dz):
    """int_{-h}^{z_k} f along the last axis of a 3D array, from the bottom
    node, as a running sum: the reference for the cached cumulative
    matrix of pe3d.grid."""
    out = np.zeros_like(f)
    out[:, :, 1:] = np.cumsum(0.5 * dz * (f[:, :, 1:] + f[:, :, :-1]), axis=2)
    return out
