"""Configuration parsing/serialization and CSV schemas."""

import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pe3d.config import (_SECTION_SCHEMA, ExperimentBlock, RunConfig,
                         _parse_float, _parse_floats, parse_config,
                         serialize_config)
from pe3d.dynamics import SimulationParams
from pe3d.errors import InputError
from pe3d.estimates import TrajectoryDiagnostics
from pe3d.experiments import (CHAIN_HEADER, TRAJECTORY_HEADER,
                              _reject_ignored, _write_json,
                              read_trajectory_csv, write_chain_csv,
                              write_trajectory_csv)
from pe3d.grid import GridSpec
from pe3d.kicks import ChainTrace, KickConfig


ROOT = Path(__file__).resolve().parents[1]

MINIMAL = """
experiment = decay

[grid]
n1 = 8
n2 = 8
nz = 8
"""


class TestConfigParsing:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.experiment == "decay"
        assert cfg.sim == SimulationParams()
        assert cfg.kick == KickConfig()
        assert cfg.exp == ExperimentBlock()
        assert cfg.record_every == 1

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# c\nexperiment = probe  # trailing\n\n"
                           "[grid]\nn1 = 8\nn2 = 8\nnz = 8\n")
        assert cfg.experiment == "probe"

    def test_cfl_bound_violation_names_the_field(self):
        with pytest.raises(InputError, match="cfl"):
            parse_config(MINIMAL + "[sim]\ncfl = 1.5\n")

    def test_unknown_key_reports_line_number(self):
        with pytest.raises(InputError, match="line 8.*unknown key"):
            parse_config(MINIMAL + "wavelength = 3\n")

    def test_forcing_mode_is_an_unknown_key(self):
        # whether a run is forced follows from its forcing field alone
        with pytest.raises(InputError, match="line 9: unknown key 'forcing_mode'"):
            parse_config(MINIMAL + "[sim]\nforcing_mode = zero\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(InputError, match=r"\[turbulence\]"):
            parse_config(MINIMAL + "[turbulence]\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(InputError, match="duplicate"):
            parse_config(MINIMAL + "[sim]\nnu = 1.0\nnu = 2.0\n")

    def test_type_mismatch_reports_line(self):
        with pytest.raises(InputError, match="cannot parse"):
            parse_config(MINIMAL + "[sim]\nnu = sticky\n")

    def test_missing_experiment_rejected(self):
        with pytest.raises(InputError, match="experiment"):
            parse_config("[grid]\nn1 = 8\nn2 = 8\nnz = 8\n")

    def test_unknown_experiment_rejected(self):
        with pytest.raises(InputError):
            parse_config("experiment = teleport\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(InputError, match="line 2"):
            parse_config("experiment = decay\njust some words\n")

    @pytest.mark.parametrize("entry, key", [
        ("f_H2 = -0.1", "experiment.f_H2"),
        ("probe_t = -0.5", "experiment.probe_t"),
        ("probe_t = 0", "experiment.probe_t"),
        ("f_H2 = nan", "experiment.f_H2"),
    ])
    def test_bad_experiment_value_names_the_key(self, entry, key):
        with pytest.raises(InputError, match=key):
            parse_config(MINIMAL + f"[experiment]\n{entry}\n")

    @pytest.mark.parametrize("section, key", [
        (section, key) for section, schema in _SECTION_SCHEMA.items()
        for key, conv in schema.items() if conv in (_parse_float, _parse_floats)])
    @pytest.mark.parametrize("value", ["nan", "-inf"])
    def test_non_finite_float_names_the_key(self, section, key, value):
        # a list key is rejected for one non-finite entry among finite ones
        entry = f"1e-2,{value}" if key == "deltas" else value
        with pytest.raises(InputError, match=rf"line 9: cannot parse {section}\.{key} = "
                                             rf"'{entry}': not a finite number"):
            parse_config(MINIMAL + f"[{section}]\n{key} = {entry}\n")

    def test_deltas_list(self):
        cfg = parse_config(MINIMAL + "[experiment]\ndeltas = 1e-2,1e-4\n")
        assert cfg.exp.deltas == (1e-2, 1e-4)

    @pytest.mark.parametrize("path", sorted(
        str(p.relative_to(ROOT)) for d in ("configs", "bench/configs")
        for p in (ROOT / d).glob("*.cfg")))
    def test_shipped_configs_parse(self, path):
        # every config in the repository, the benchmark's included, names
        # its experiment in its file name and sets only keys it reads
        cfg = parse_config((ROOT / path).read_text())
        assert Path(path).stem.startswith(cfg.experiment)
        assert parse_config(serialize_config(cfg)) == cfg
        _reject_ignored(cfg)


_floats = st.floats(min_value=1e-6, max_value=1e3, allow_nan=False,
                    allow_infinity=False)


@st.composite
def run_configs(draw):
    return RunConfig(
        experiment=draw(st.sampled_from(
            ("verify", "decay", "absorb", "kicks", "diag", "probe"))),
        output_dir=draw(st.sampled_from(("out", "results/x", "pe3d_out"))),
        record_every=draw(st.integers(1, 50)),
        grid=GridSpec(L1=draw(_floats), L2=draw(_floats), h=draw(_floats),
                      n1=draw(st.integers(4, 32)), n2=draw(st.integers(4, 32)),
                      nz=draw(st.integers(4, 32))),
        sim=SimulationParams(nu=draw(_floats), dt_max=draw(_floats),
                             cfl=draw(st.floats(0.01, 1.0)), t_end=draw(_floats)),
        kick=KickConfig(T=draw(st.floats(0.0, 10.0)), R=draw(st.floats(0.0, 10.0)),
                        n_modes=draw(st.integers(1, 4)),
                        seed=draw(st.integers(0, 2 ** 31)),
                        N=draw(st.integers(2, 1000)), burn_in=draw(st.integers(0, 1))),
        exp=ExperimentBlock(R=draw(_floats), eps=draw(_floats),
                            n_ic=draw(st.integers(1, 10)),
                            n_chains=draw(st.integers(1, 10)),
                            f_H2=draw(st.floats(0.0, 10.0)),
                            window_frac=draw(st.floats(0.01, 1.0)),
                            eta=draw(_floats),
                            deltas=tuple(draw(st.lists(_floats, min_size=1,
                                                       max_size=5))),
                            probe_t=draw(_floats),
                            input=draw(st.sampled_from(("", "runs/*.csv")))),
    )


class TestConfigRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(run_configs())
    def test_serialize_then_parse_is_identity(self, cfg):
        assert parse_config(serialize_config(cfg)) == cfg


def _mk_diag(rng, n=20):
    t = np.cumsum(rng.uniform(0.01, 0.1, size=n))
    pos = rng.uniform(0.1, 2.0, size=(4, n))
    return TrajectoryDiagnostics(t=t, H2=pos[0], E2=pos[1], J=pos[2],
                                 K=np.zeros(n), Kbar=pos[3],
                                 budget_slack=rng.standard_normal(n) * 1e-9)


def _mk_trace(rng, n):
    return ChainTrace(n=np.arange(1, n + 1),
                      H2=rng.uniform(size=n), E2=rng.uniform(size=n),
                      J=rng.uniform(size=n), K=rng.uniform(size=n),
                      kick_V2=rng.uniform(size=n),
                      rescaled=rng.uniform(size=n) > 0.5)


class TestCsvSchemas:
    def test_headers_pinned(self):
        # the headers are derived from the record fields; diag and the
        # benchmark checks read these exact strings
        assert TRAJECTORY_HEADER == "t,H2,E2,J,K,Kbar,budget_slack"
        assert CHAIN_HEADER == "n,H2,E2,J,K,kick_V2,rescaled"

    def test_trajectory_roundtrip_lossless(self, tmp_path, rng):
        diag = _mk_diag(rng)
        path = tmp_path / "t.csv"
        write_trajectory_csv(path, diag)
        assert path.read_text().splitlines()[0] == TRAJECTORY_HEADER
        back = read_trajectory_csv(path)
        for f in fields(TrajectoryDiagnostics):
            assert np.array_equal(getattr(back, f.name), getattr(diag, f.name))

    def test_decreasing_timestamps_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(TRAJECTORY_HEADER + "\n"
                        "0.2,1,1,1,0,1,0\n0.1,1,1,1,0,1,0\n")
        with pytest.raises(InputError):
            read_trajectory_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,energy\n0,1\n")
        with pytest.raises(InputError, match="header"):
            read_trajectory_csv(path)

    def test_header_only_rejected_without_warning(self, tmp_path):
        # numpy warns on a file with no data rows; the reader turns it into
        # an InputError and lets no warning escape
        path = tmp_path / "empty.csv"
        path.write_text(TRAJECTORY_HEADER + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(InputError, match="7 columns"):
                read_trajectory_csv(path)
        assert caught == []

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(TRAJECTORY_HEADER + "\n0.1,a,b,c,d,e,f\n")
        with pytest.raises(InputError):
            read_trajectory_csv(path)

    @pytest.mark.parametrize("writer", ["trajectory", "chain", "json"])
    def test_failed_write_leaves_no_file(self, tmp_path, rng, writer):
        # real records whose last row cannot be formatted: the writer opens
        # the temp file and writes the first rows before it fails
        class Unformattable:
            pass

        col = np.array([0.0, 1.0, Unformattable()], dtype=object)
        path = tmp_path / "out"
        with pytest.raises(TypeError):
            if writer == "trajectory":
                diag = _mk_diag(rng, n=3)
                diag.Kbar = col
                write_trajectory_csv(path, diag)
            elif writer == "chain":
                trace = _mk_trace(rng, 3)
                trace.n = col
                write_chain_csv(path, trace)
            else:
                _write_json(path, {"rows": list(col)})
        assert list(tmp_path.iterdir()) == []

    def test_chain_schema(self, tmp_path, rng):
        n = 6
        path = tmp_path / "c.csv"
        write_chain_csv(path, _mk_trace(rng, n))
        lines = path.read_text().splitlines()
        assert lines[0] == CHAIN_HEADER
        assert len(lines) == n + 1
        last = lines[-1].split(",")
        assert last[0] == str(n) and last[-1] in ("0", "1")
