"""Line-oriented run configuration: `key = value` entries under [section]
headers, with `#` comments.  Unknown keys and sections are hard errors,
reported with line numbers.  serialize() round-trips losslessly (floats
printed with 17 significant digits)."""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields
from typing import get_type_hints

from .dynamics import SimulationParams
from .errors import InputError
from .grid import GridSpec
from .kicks import KickConfig

EXPERIMENTS = ("verify", "decay", "absorb", "kicks", "diag", "probe")


@dataclass(frozen=True)
class ExperimentBlock:
    R: float = 1.0
    eps: float = 1e-3
    n_ic: int = 5
    n_chains: int = 10
    f_H2: float = 0.1
    window_frac: float = 0.3
    eta: float = 0.05
    deltas: tuple[float, ...] = (1e-2, 1e-3, 1e-4, 1e-5)
    probe_t: float = 0.5
    input: str = ""

    def __post_init__(self):
        if self.R < 0 or self.eps <= 0 or self.eta <= 0:
            raise InputError("experiment.R must be >= 0; eps, eta must be > 0")
        if self.n_ic < 1 or self.n_chains < 1:
            raise InputError("experiment.n_ic and n_chains must be >= 1")
        if not (0.0 < self.window_frac <= 1.0):
            raise InputError("experiment.window_frac must lie in (0, 1]")
        if any(d <= 0 for d in self.deltas):
            raise InputError("experiment.deltas must be positive")
        if not self.f_H2 >= 0.0:
            raise InputError("experiment.f_H2 must be >= 0")
        if not self.probe_t > 0.0:
            raise InputError("experiment.probe_t must be > 0")


@dataclass(frozen=True)
class RunConfig:
    experiment: str
    grid: GridSpec
    sim: SimulationParams
    kick: KickConfig
    exp: ExperimentBlock
    output_dir: str = "pe3d_out"
    record_every: int = 1

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise InputError(f"experiment must be one of {EXPERIMENTS}")
        if self.record_every < 1:
            raise InputError("record_every must be >= 1")


def _parse_float(s: str) -> float:
    """A finite float: no check downstream has to guard against NaN or an
    infinity (``t_end = inf`` would never end a run)."""
    x = float(s)
    if not abs(x) < float("inf"):
        raise ValueError("not a finite number")
    return x


def _parse_floats(s: str) -> tuple[float, ...]:
    return tuple(_parse_float(p) for p in s.split(","))


#: config section -> (RunConfig attribute, the dataclass it holds)
_SECTIONS = {"grid": ("grid", GridSpec), "sim": ("sim", SimulationParams),
             "kick": ("kick", KickConfig), "experiment": ("exp", ExperimentBlock)}
_PARSERS = {float: _parse_float, int: int, str: str,
            tuple[float, ...]: _parse_floats}


def _schema(cls, skip=()) -> dict:
    """Key -> value parser for each field of a dataclass but those in
    ``skip``, so a config key exists exactly when a field does."""
    hints = get_type_hints(cls)
    return {f.name: _PARSERS[hints[f.name]] for f in dc_fields(cls)
            if f.name not in skip}


_SECTION_SCHEMA = {name: _schema(cls) for name, (_, cls) in _SECTIONS.items()}
#: RunConfig's scalar fields: the keys above the first section header
_TOP_SCHEMA = _schema(RunConfig, skip={attr for attr, _ in _SECTIONS.values()})


def parse_config(text: str) -> RunConfig:
    top: dict = {}
    sections: dict[str, dict] = {name: {} for name in _SECTION_SCHEMA}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTION_SCHEMA:
                raise InputError(f"line {lineno}: unknown section [{name}]")
            current = name
            continue
        if "=" not in line:
            raise InputError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        schema = _TOP_SCHEMA if current is None else _SECTION_SCHEMA[current]
        where = "top level" if current is None else f"section [{current}]"
        if key in (top if current is None else sections[current]):
            raise InputError(f"line {lineno}: duplicate key {key!r} in {where}")
        if key not in schema:
            raise InputError(f"line {lineno}: unknown key {key!r} in {where}")
        try:
            parsed = schema[key](value)
        except ValueError as e:
            name = key if current is None else f"{current}.{key}"
            raise InputError(f"line {lineno}: cannot parse {name} = {value!r}: {e}")
        (top if current is None else sections[current])[key] = parsed

    if "experiment" not in top:
        raise InputError("missing required top-level key 'experiment'")
    return RunConfig(
        **top,
        **{attr: cls(**sections[name]) for name, (attr, cls) in _SECTIONS.items()})


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, tuple):
        return ",".join(f"{x:.17g}" for x in v)
    return str(v)


def serialize_config(cfg: RunConfig) -> str:
    lines = [f"{key} = {_fmt(getattr(cfg, key))}" for key in _TOP_SCHEMA] + [""]
    for section, (attr, _) in _SECTIONS.items():
        obj = getattr(cfg, attr)
        lines.append(f"[{section}]")
        for f in dc_fields(obj):
            lines.append(f"{f.name} = {_fmt(getattr(obj, f.name))}")
        lines.append("")
    return "\n".join(lines)
