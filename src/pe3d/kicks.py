"""Kick-forced Markov chain.

The chain is X_n = S(T)[X_{n-1}] + xi_n with i.i.d. kicks drawn from a
stream-function construction that satisfies the boundary conditions and
the divergence constraint analytically, then rescaled so the squared
Laplacian norm stays below the bound R (and, as a safeguard, the squared
V-norm too); a draw records its V-norm and whether either rescaling fired.
``run_chain`` returns the chain's trace, one row per step.  Its post-burn-in
rows are the samples of the empirical invariant measure (time averages in
the sense of Krylov-Bogolyubov); ``wasserstein1`` measures the distance
between two such sample sets.

RNG: numpy PCG64 seeded through SeedSequence((seed, chain_index)), which
is documented platform-stable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dynamics import SimulationParams, solve_S
from .errors import InputError
from .fields import HorizontalField, laplacian3
from .grid import GridSpec, weights3
from .norms import _report, norm_V
from .projection import project_H
from .sampling import mode_sum


@dataclass(frozen=True)
class KickConfig:
    """The [kick] block of a run configuration.  T = 0 means: measure
    T_V(4R, R) before running; a chain itself needs T > 0."""

    T: float = 0.0
    R: float = 0.25
    n_modes: int = 2
    seed: int = 0
    N: int = 300
    burn_in: int = 50

    def __post_init__(self):
        if self.T < 0:
            raise InputError("kick.T must be nonnegative (0 = auto-measure)")
        if self.R < 0:
            raise InputError("kick.R must be nonnegative")
        if not (0 <= self.burn_in < self.N):
            raise InputError("kick.burn_in must satisfy 0 <= burn_in < N")
        if self.n_modes < 1:
            raise InputError("kick.n_modes must be >= 1")


@dataclass
class KickDraw:
    xi: HorizontalField
    V2: float            # |xi|_V^2 after rescaling
    rescaled: bool       # the |lap xi|^2 bound or the V-norm safeguard rescaled xi


def _lap2_norm2(xi: HorizontalField) -> float:
    lap = laplacian3(xi)
    vol = weights3(xi.grid)
    return float(np.sum((lap.u1 ** 2 + lap.u2 ** 2) * vol))


@functools.lru_cache(maxsize=32)
def _base_amplitude(grid: GridSpec, n_modes: int, R: float) -> float:
    """Scale so a typical raw draw has |lap xi|^2 around R/4; computed from
    the deterministic all-ones-coefficients draw."""
    ref = mode_sum(grid, n_modes, np.ones(n_modes ** 3))
    raw = _lap2_norm2(ref)
    return 0.0 if R == 0 or raw == 0 else 1.5 * np.sqrt(R / raw)


def draw_kick(rng: np.random.Generator, grid: GridSpec, config: KickConfig) -> KickDraw:
    """Random kick bounded by |lap xi|_{L2}^2 <= R (and, as a safeguard for
    the chain boundedness induction, |xi|_V^2 <= R), with its metadata."""
    if config.R == 0.0:
        return KickDraw(HorizontalField.zeros(grid), 0.0, False)
    coeffs = rng.uniform(-1.0, 1.0, size=config.n_modes ** 3)
    xi = (_base_amplitude(grid, config.n_modes, config.R)
          * mode_sum(grid, config.n_modes, coeffs))
    lap2 = _lap2_norm2(xi)
    rescaled = lap2 > config.R
    if rescaled:
        xi = float(np.sqrt(config.R / lap2)) * xi
    V2 = norm_V(xi) ** 2
    if V2 > config.R:
        xi = float(np.sqrt(config.R / V2)) * xi
        V2 = config.R
        rescaled = True
    return KickDraw(xi, V2, rescaled)


# ---------------------------------------------------------------------------
# The chain
# ---------------------------------------------------------------------------

def chain_rng(config: KickConfig, chain_index: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((config.seed, chain_index))))


def chain_step(X: HorizontalField, rng: np.random.Generator, config: KickConfig,
               params: SimulationParams) -> tuple[HorizontalField, KickDraw]:
    """X <- project(S(T)[X] + xi); the projection is a no-op up to tolerance
    since both summands lie in the discrete space H."""
    flowed = solve_S(X, config.T, params)
    draw = draw_kick(rng, X.grid, config)
    return project_H(flowed + draw.xi), draw


@dataclass
class ChainTrace:
    """Row n of the chain: the observables of X_n and the kick that made it.
    The fields are the chain CSV's columns, in order."""

    n: np.ndarray
    H2: np.ndarray
    E2: np.ndarray
    J: np.ndarray
    K: np.ndarray
    kick_V2: np.ndarray
    rescaled: np.ndarray


def run_chain(config: KickConfig, params: SimulationParams,
              v0: HorizontalField, chain_index: int = 0) -> ChainTrace:
    """Iterate the chain N times from project_H(v0) and record rows
    n = 1..N."""
    if config.T <= 0:
        raise InputError("run_chain: inter-kick time T must be positive "
                         "(T = 0 in a config means: measure T_V first)")
    X, rng = project_H(v0), chain_rng(config, chain_index)
    rows = []
    for n in range(1, config.N + 1):
        X, draw = chain_step(X, rng, config, params)
        rep = _report(X, kbar=False)
        rows.append((n, rep.H2, rep.E2, rep.J, rep.K, draw.V2, draw.rescaled))
    return ChainTrace(*(np.array(col) for col in zip(*rows)))


# ---------------------------------------------------------------------------
# Wasserstein distance
# ---------------------------------------------------------------------------

def wasserstein1(s1: np.ndarray, s2: np.ndarray) -> float:
    """Exact 1-Wasserstein distance between two empirical distributions:
    the integral of |CDF1 - CDF2| over the merged sample breakpoints."""
    s1, s2 = np.asarray(s1, dtype=float), np.asarray(s2, dtype=float)
    if s1.size == 0 or s2.size == 0:
        raise InputError("wasserstein1: empty sample set")
    xs = np.sort(np.concatenate([s1, s2]))
    breaks = xs[:-1]
    widths = np.diff(xs)
    cdf1 = np.searchsorted(np.sort(s1), breaks, side="right") / s1.size
    cdf2 = np.searchsorted(np.sort(s2), breaks, side="right") / s2.size
    return float(np.sum(np.abs(cdf1 - cdf2) * widths))
