"""Kick-forced Markov chain.

The chain is X_n = S(T)[X_{n-1}] + xi_n with i.i.d. kicks: mode sums
(``sampling``), which satisfy the boundary conditions and the divergence
constraint analytically, rescaled in coefficient space so the squared
Laplacian norm stays below the bound R (and, as a safeguard, the squared
V-norm too); a draw records its V-norm and whether either rescaling fired.
The chain is one kicked trajectory (``chain_step``), so ``run_chain``
projects it and certifies its diffusion solve once, at its start, and
returns the chain's trace, one row per step.  Its post-burn-in rows are
the samples of the empirical invariant measure (time averages in the
sense of Krylov-Bogolyubov); ``wasserstein1`` measures the distance
between two such sample sets.

RNG: numpy PCG64 seeded through SeedSequence((seed, chain_index)), which
is documented platform-stable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import SimState, SimulationParams, advance
from .errors import DivergenceError, InputError
from .fields import HorizontalField
from .grid import GridSpec, _trapezoid_weights, along, diff_matrix, weights2
from .norms import _report
from .projection import project_H
from .sampling import mode_factors, mode_sum


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
        if self.seed < 0:
            raise InputError("kick.seed must be >= 0")


@dataclass
class KickDraw:
    xi: HorizontalField
    V2: float            # |xi|_V^2 after rescaling
    rescaled: bool       # the |lap xi|^2 bound or the V-norm safeguard rescaled xi


@functools.lru_cache(maxsize=32)
def _grams(grid: GridSpec, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """G_lap and G_V of the unit mode sums, read-only: for xi = mode_sum(c),
    |lap xi|^2 = c^T G_lap c and |xi|_V^2 = c^T G_V c.  The unit mode sum of
    (j, k) is w[j, k] F_j (x) phi_k (``sampling.mode_factors``), and every
    operator in the two norms is a sum of per-axis ones, so each image is a
    sum of tensor products and its Gram a sum of Kronecker products of
    weighted 2D and 1D Grams; no 3D field is formed."""
    F, phi, w = mode_factors(grid, n_modes)
    w2, wz = weights2(grid)[:, :, None], _trapezoid_weights(grid.nz, grid.dz)
    x, y, z = (1, grid.n1, grid.d1), (2, grid.n2, grid.d2), (1, grid.nz, grid.dz)

    def d(kind, f, axis):
        return along(diff_matrix(kind, *axis[1:]), f, axis[0])

    def gram(*terms):
        """The Gram of the images sum over (a, b) in terms of a (x) b."""
        return np.outer(w, w) * sum(
            np.kron(a.reshape(-1, a.shape[-1]).T @ (w2 * a2).reshape(-1, a2.shape[-1]),
                    (b * wz) @ b2.T) for a, b in terms for a2, b2 in terms)

    g_lap = gram((d("dirichlet", F, x) + d("dirichlet", F, y), phi),
                 (F, d("neumann", phi, z)))
    g_V = (gram((d("onesided2", F, x), phi)) + gram((d("onesided2", F, y), phi))
           + gram((F, d("onesided2", phi, z))))
    for g in (g_lap, g_V):
        g.setflags(write=False)
    return g_lap, g_V


def draw_kick(rng: np.random.Generator, grid: GridSpec, config: KickConfig) -> KickDraw:
    """Random kick bounded by |lap xi|_{L2}^2 <= R (and, as a safeguard for
    the chain boundedness induction, |xi|_V^2 <= R), with its metadata.
    Drawn in coefficient space: uniform(-1, 1) coefficients scaled so the
    all-ones draw would have |lap xi|^2 = 2.25 R; both norms are quadratic
    forms in them (``_grams``), and both rescalings scale them."""
    if config.R == 0.0:
        return KickDraw(HorizontalField.zeros(grid), 0.0, False)
    g_lap, g_V = _grams(grid, config.n_modes)
    c = rng.uniform(-1.0, 1.0, size=config.n_modes ** 3)
    c *= 1.5 * np.sqrt(config.R / g_lap.sum())
    lap2 = c @ g_lap @ c
    rescaled = lap2 > config.R
    if rescaled:
        c *= np.sqrt(config.R / lap2)
    V2 = float(c @ g_V @ c)
    if V2 > config.R:
        c *= np.sqrt(config.R / V2)
        V2 = config.R
        rescaled = True
    return KickDraw(mode_sum(grid, config.n_modes, c), V2, bool(rescaled))


# ---------------------------------------------------------------------------
# The chain
# ---------------------------------------------------------------------------

def chain_rng(config: KickConfig, chain_index: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((config.seed, chain_index))))


def chain_step(state: SimState, rng: np.random.Generator, config: KickConfig,
               params: SimulationParams) -> tuple[SimState, KickDraw]:
    """X <- S(T)[X] + xi for the chain state ``state`` (T > 0).  Flows
    replace(state, t=0.0) by T (``dynamics.advance``), so each kick's steps
    are those of a fresh trajectory from X while the step count runs on and
    only the chain's first step certifies its diffusion solve; then adds
    the kick in place.  Not projected: both summands lie in the discrete
    space H (the flowed state was projected by its own last step, and a
    mode sum lies in H by construction)."""
    state = advance(replace(state, t=0.0), config.T, params)
    draw = draw_kick(rng, state.v.grid, config)
    state.v.data += draw.xi.data
    return state, draw


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
    n = 1..N.  A DivergenceError gains the chain index and the kick n whose
    flow diverged (``chain`` and ``kick`` in its diagnostics)."""
    if config.T <= 0:
        raise InputError("run_chain: inter-kick time T must be positive "
                         "(T = 0 in a config means: measure T_V first)")
    state, rng = SimState(t=0.0, v=project_H(v0)), chain_rng(config, chain_index)
    rows = []
    for n in range(1, config.N + 1):
        try:
            state, draw = chain_step(state, rng, config, params)
        except DivergenceError as e:
            e.diagnostics.update(chain=chain_index, kick=n)
            raise
        rep = _report(state.v, kbar=False)
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
