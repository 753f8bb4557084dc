"""Kick-forced Markov chain and empirical invariant-measure estimation.

The chain is X_n = S(T)[X_{n-1}] + xi_n with i.i.d. kicks drawn from a
stream-function construction that satisfies the boundary conditions and
the divergence constraint analytically, then rescaled so the squared
Laplacian norm stays below the bound R.  Empirical measures are pooled
histograms of observable pushforwards (time averages in the sense of
Krylov-Bogolyubov); their convergence proxy is the 1-Wasserstein distance
between observable distributions.

RNG: numpy PCG64 seeded through SeedSequence((seed, chain_index)), which
is documented platform-stable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .dynamics import SimulationParams, solve_S
from .errors import InputError
from .fields import HorizontalField, laplacian3
from .grid import GridSpec, weights3
from .norms import norm_H, norm_L6, norm_V, norm_V_K
from .projection import project_H
from .sampling import mode_sum

OBSERVABLES = ("H2", "E2", "J", "K")


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
class ChainState:
    n: int
    X: HorizontalField
    rng: np.random.Generator


@dataclass
class KickDraw:
    xi: HorizontalField
    lap2: float          # |lap xi|_{L2}^2 after rescaling
    V2: float            # |xi|_V^2 after rescaling
    rescaled: bool       # the H2-bound rescaling triggered
    v_rescaled: bool     # the V-norm safeguard additionally triggered


def _lap2_norm2(xi: HorizontalField) -> float:
    lap = laplacian3(xi, xi.grid, check=False)
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
        return KickDraw(HorizontalField.zeros(grid), 0.0, 0.0, False, False)
    coeffs = rng.uniform(-1.0, 1.0, size=config.n_modes ** 3)
    xi = (_base_amplitude(grid, config.n_modes, config.R)
          * mode_sum(grid, config.n_modes, coeffs))
    lap2 = _lap2_norm2(xi)
    rescaled = lap2 > config.R
    if rescaled:
        xi = float(np.sqrt(config.R / lap2)) * xi
        lap2 = config.R
    V2 = norm_V(xi) ** 2
    v_rescaled = V2 > config.R
    if v_rescaled:
        s = float(np.sqrt(config.R / V2))
        xi = s * xi
        lap2 *= s * s
        V2 = config.R
    return KickDraw(xi, lap2, V2, rescaled, v_rescaled)


# ---------------------------------------------------------------------------
# The chain
# ---------------------------------------------------------------------------

def chain_rng(config: KickConfig, chain_index: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((config.seed, chain_index))))


def chain_step(state: ChainState, config: KickConfig,
               params: SimulationParams) -> tuple[ChainState, KickDraw]:
    """X <- project(S(T)[X] + xi); the projection is a no-op up to tolerance
    since both summands lie in the discrete space H."""
    flowed = solve_S(state.X, config.T, params)
    draw = draw_kick(state.rng, state.X.grid, config)
    X = project_H(flowed + draw.xi)
    return ChainState(n=state.n + 1, X=X, rng=state.rng), draw


@dataclass
class ChainTrace:
    n: np.ndarray
    H2: np.ndarray
    E2: np.ndarray
    J: np.ndarray
    K: np.ndarray
    kick_V2: np.ndarray
    rescaled: np.ndarray


@dataclass
class EmpiricalMeasure:
    """Pooled per-observable samples with histogram summaries."""

    samples: dict[str, np.ndarray]
    edges: dict[str, np.ndarray] = field(default_factory=dict)
    counts: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if not self.edges:
            for name, s in self.samples.items():
                counts, edges = np.histogram(s, bins=24)
                self.edges[name] = edges
                self.counts[name] = counts

    def n_samples(self) -> int:
        return len(next(iter(self.samples.values())))

    def to_dict(self) -> dict:
        return {name: {"edges": self.edges[name].tolist(),
                       "counts": self.counts[name].tolist(),
                       "samples": self.samples[name].tolist()}
                for name in self.samples}

    @classmethod
    def from_dict(cls, d: dict) -> "EmpiricalMeasure":
        return cls(samples={k: np.asarray(v["samples"], dtype=float) for k, v in d.items()},
                   edges={k: np.asarray(v["edges"], dtype=float) for k, v in d.items()},
                   counts={k: np.asarray(v["counts"], dtype=int) for k, v in d.items()})


def _observe(v: HorizontalField) -> tuple[float, float, float, float]:
    E, K = norm_V_K(v)
    return norm_H(v) ** 2, E ** 2, norm_L6(v), K


def run_chain(config: KickConfig, params: SimulationParams,
              v0: HorizontalField, chain_index: int = 0,
              n_windows: int = 5) -> tuple[ChainTrace, EmpiricalMeasure, list[EmpiricalMeasure]]:
    """Iterate the chain N times; pool post-burn-in observable samples into
    an EmpiricalMeasure, plus equal-width windowed measures for convergence
    diagnostics."""
    if config.T <= 0:
        raise InputError("run_chain: inter-kick time T must be positive "
                         "(T = 0 in a config means: measure T_V first)")
    state = ChainState(n=0, X=project_H(v0), rng=chain_rng(config, chain_index))
    rows = []
    for _ in range(config.N):
        state, draw = chain_step(state, config, params)
        H2, E2, J, K = _observe(state.X)
        rows.append((state.n, H2, E2, J, K, draw.V2,
                     1.0 if (draw.rescaled or draw.v_rescaled) else 0.0))
    arr = np.array(rows)
    trace = ChainTrace(n=arr[:, 0].astype(int), H2=arr[:, 1], E2=arr[:, 2],
                       J=arr[:, 3], K=arr[:, 4], kick_V2=arr[:, 5],
                       rescaled=arr[:, 6].astype(bool))
    post = arr[config.burn_in:, :]
    pooled = EmpiricalMeasure(samples={
        name: post[:, i + 1].copy() for i, name in enumerate(OBSERVABLES)})
    windows = []
    width = len(post) // n_windows
    if width >= 1:
        for k in range(n_windows):
            chunk = post[k * width:(k + 1) * width]
            windows.append(EmpiricalMeasure(samples={
                name: chunk[:, i + 1].copy() for i, name in enumerate(OBSERVABLES)}))
    return trace, pooled, windows


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


def wasserstein1_measures(m1: EmpiricalMeasure, m2: EmpiricalMeasure,
                          observable: str) -> float:
    if observable not in m1.samples or observable not in m2.samples:
        raise InputError(f"wasserstein1: unknown observable {observable!r}")
    return wasserstein1(m1.samples[observable], m2.samples[observable])
