"""Experiment drivers and the CLI: exit codes, artifacts, reproducibility."""

import json
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from conftest import count_calls_everywhere, scale_inverse_symbol
from pe3d.cli import main
from pe3d.config import (_SECTION_SCHEMA, _SECTIONS, _TOP_SCHEMA, EXPERIMENTS,
                         parse_config)
from pe3d import dynamics, experiments, kicks
from pe3d.errors import DivergenceError, InputError, SolverError
from pe3d.estimates import eta_partition
from pe3d.experiments import (_READS, CHAIN_HEADER, TRAJECTORY_HEADER,
                              _reject_ignored, _scaled_ic, measure_T_V,
                              read_trajectory_csv, run_experiment)
from pe3d.kicks import wasserstein1
from pe3d.norms import norm_H
from pe3d.verification import ConvergenceReport


TINY = """
experiment = decay
record_every = 1

[grid]
n1 = 6
n2 = 6
nz = 6

[sim]
t_end = 0.05
dt_max = 0.005

[experiment]
R = 0.5
eps = 1e-2
n_ic = 2
"""


def _cfg(text=TINY):
    return parse_config(text)


class TestDecayDriver:
    def test_success_artifacts(self, tmp_path):
        code = run_experiment(_cfg(), output=str(tmp_path))
        assert code == 0
        assert (tmp_path / "decay_0.csv").exists()
        assert (tmp_path / "decay_1.csv").exists()
        rep = json.loads((tmp_path / "decay_report.json").read_text())
        assert all(T is not None for T in rep["T_V"])

    def test_zero_R_reports_zero_decay_time(self, tmp_path):
        cfg = _cfg(TINY.replace("R = 0.5", "R = 0"))
        code = run_experiment(cfg, output=str(tmp_path))
        assert code == 0
        rep = json.loads((tmp_path / "decay_report.json").read_text())
        assert rep["T_V"] == [0.0, 0.0]

    def test_unreachable_eps_exits_2_with_diagnostic(self, tmp_path):
        cfg = _cfg(TINY.replace("eps = 1e-2", "eps = 1e-30")
                       .replace("t_end = 0.05", "t_end = 0.01"))
        code = run_experiment(cfg, output=str(tmp_path))
        assert code == 2
        fail = json.loads((tmp_path / "failure.json").read_text())
        assert fail["kind"] == "assertion"

    def test_reproducible_bit_for_bit(self, tmp_path):
        run_experiment(_cfg(), output=str(tmp_path / "a"))
        run_experiment(_cfg(), output=str(tmp_path / "b"))
        assert ((tmp_path / "a" / "decay_0.csv").read_bytes()
                == (tmp_path / "b" / "decay_0.csv").read_bytes())

    def test_seed_changes_the_trajectories(self, tmp_path):
        run_experiment(_cfg(), output=str(tmp_path / "a"))
        run_experiment(_cfg(), seed=99, output=str(tmp_path / "b"))
        assert ((tmp_path / "a" / "decay_0.csv").read_bytes()
                != (tmp_path / "b" / "decay_0.csv").read_bytes())


class TestFailurePaths:
    def test_divergence_writes_diagnostics(self, tmp_path, monkeypatch):
        def diverge(cfg, outdir):
            raise DivergenceError("state diverged", diagnostics={"t": 0.5, "step": 7})

        monkeypatch.setitem(experiments._DRIVERS, "decay", diverge)
        assert run_experiment(_cfg(), output=str(tmp_path)) == 3
        fail = json.loads((tmp_path / "failure.json").read_text())
        assert fail["kind"] == "error"
        assert fail["diagnostics"] == {"t": 0.5, "step": 7}

    def test_diverging_run_writes_step_diagnostics(self, tmp_path):
        # an initial field so large that the state overflows within a few
        # hundred steps: the step that diverges, not the projection after
        # it, reports the failure
        cfg = _cfg(TINY.replace("R = 0.5", "R = 3e307").replace("n_ic = 2", "n_ic = 1"))
        with np.errstate(over="ignore", invalid="ignore"):
            assert run_experiment(cfg, output=str(tmp_path)) == 3
        fail = json.loads((tmp_path / "failure.json").read_text())
        assert fail["kind"] == "error"
        assert fail["detail"].startswith("state diverged")
        assert set(fail["diagnostics"]) == {"t", "step", "dt", "H_before"}
        assert fail["diagnostics"]["step"] > 0

    @pytest.mark.parametrize("R", ["6e307", "1e308"])
    def test_overflowing_R_names_the_key(self, tmp_path, R):
        # the scaled initial field would not be finite: an input error that
        # names the key, raised before any numpy warning (warnings are
        # errors in this suite)
        cfg = _cfg(TINY.replace("R = 0.5", f"R = {R}"))
        assert run_experiment(cfg, output=str(tmp_path)) == 3
        fail = json.loads((tmp_path / "failure.json").read_text())
        assert fail["kind"] == "error"
        assert "experiment.R" in fail["detail"]
        assert "overflows" in fail["detail"]
        assert not (tmp_path / "decay_0.csv").exists()

    def test_solver_residual_recorded(self, tmp_path, monkeypatch):
        # a faulty diffusion solve fails the first step's check, whose
        # residual the failure records
        residuals = []
        check = dynamics.weighted_cg

        def recording(*args, **kwargs):
            try:
                return check(*args, **kwargs)
            except SolverError as e:
                residuals.append(e.residual)
                raise

        scale_inverse_symbol(monkeypatch, 1.0 + 1e-6)
        monkeypatch.setattr(dynamics, "weighted_cg", recording)
        assert run_experiment(_cfg(), output=str(tmp_path)) == 3
        fail = json.loads((tmp_path / "failure.json").read_text())
        assert fail["kind"] == "error"
        assert "implicit-diffusion" in fail["detail"]
        assert [fail["residual"]] == residuals
        assert fail["residual"] > dynamics.DIFFUSION_RTOL
        assert not (tmp_path / "decay_0.csv").exists()

    def test_unexpected_exception_recorded_and_reraised(self, tmp_path, monkeypatch):
        def broken(cfg, outdir):
            raise KeyError("missing")

        monkeypatch.setitem(experiments._DRIVERS, "decay", broken)
        with pytest.raises(KeyError):
            run_experiment(_cfg(), output=str(tmp_path))
        fail = json.loads((tmp_path / "failure.json").read_text())
        assert fail["kind"] == "exception"
        assert fail["type"] == "KeyError"
        assert "missing" in fail["detail"]


class TestVerifyDriver:
    def test_ignored_grid_key_exits_3(self, tmp_path):
        cfg = _cfg("experiment = verify\n[grid]\nn1 = 48\n")
        assert run_experiment(cfg, output=str(tmp_path)) == 3
        fail = json.loads((tmp_path / "failure.json").read_text())
        assert fail["kind"] == "error"
        assert "grid.n1" in fail["detail"]
        assert not (tmp_path / "convergence.json").exists()

    @pytest.mark.parametrize("text, key", [
        ("[kick]\nN = 500\n", "kick.N"),
        ("[experiment]\nR = 2\n", "experiment.R"),
        ("record_every = 3\n", "record_every"),
        ("seed = 5\n", "seed"),
    ], ids=["kick.N", "experiment.R", "record_every", "seed"])
    def test_ignored_key_exits_3(self, tmp_path, text, key):
        cfg = _cfg(f"experiment = verify\n{text}")
        assert run_experiment(cfg, output=str(tmp_path)) == 3
        fail = json.loads((tmp_path / "failure.json").read_text())
        assert key in fail["detail"]
        assert not (tmp_path / "convergence.json").exists()

    def test_seed_argument_passes_the_key_check(self, tmp_path, monkeypatch):
        # run_experiment's seed replaces the config's seed after the key
        # check, so the CLI's --seed reaches every experiment
        calls = []

        def ladder(nu):
            calls.append(nu)
            return ConvergenceReport([12, 24], [1.0, 0.25], [2.0],
                                     [0.01, 0.005], [1.0, 0.5], [1.0])

        monkeypatch.setattr(experiments, "verify_manufactured", ladder)
        cfg = _cfg("experiment = verify\n[sim]\nnu = 1.0\n")
        assert run_experiment(cfg, seed=7919, output=str(tmp_path)) == 0
        assert calls == [1.0]


def _diag_cfg(input_path, extra=""):
    """A diag config that sets only what diag reads, plus ``extra``."""
    return _cfg(f"experiment = diag\n{extra}\n[experiment]\ninput = {input_path}\n")


class TestDiagDriver:
    def test_runs_on_decay_output(self, tmp_path):
        run_experiment(_cfg(), output=str(tmp_path / "runs"))
        code = run_experiment(_diag_cfg(tmp_path / "runs"),
                              output=str(tmp_path / "diag"))
        assert code == 0
        rep = json.loads((tmp_path / "diag" / "diag_report.json").read_text())
        assert all(e["bound_holds"] for e in rep["trajectories"])

    def test_partitions_each_trajectory_once(self, tmp_path, monkeypatch):
        run_experiment(_cfg(), output=str(tmp_path / "runs"))
        calls = count_calls_everywhere(monkeypatch, eta_partition)
        assert run_experiment(_diag_cfg(tmp_path / "runs"),
                              output=str(tmp_path / "diag")) == 0
        assert len(calls) == len(list((tmp_path / "runs").glob("*.csv"))) == 2

    def test_decreasing_timestamps_exit_3(self, tmp_path):
        bad = tmp_path / "runs"
        bad.mkdir()
        (bad / "t.csv").write_text(TRAJECTORY_HEADER + "\n"
                                   "0.2,1,1,1,0,1,0\n0.1,1,1,1,0,1,0\n")
        code = run_experiment(_diag_cfg(bad), output=str(tmp_path / "diag"))
        assert code == 3
        fail = json.loads((tmp_path / "diag" / "failure.json").read_text())
        assert fail["kind"] == "error"
        assert "timestamps" in fail["detail"]

    def test_missing_input_exit_3(self, tmp_path):
        cfg = _diag_cfg("/nonexistent/*.csv")
        assert run_experiment(cfg, output=str(tmp_path)) == 3
        fail = json.loads((tmp_path / "failure.json").read_text())
        assert "no trajectory CSVs" in fail["detail"]

    @pytest.mark.parametrize("text, key", [
        ("[grid]\nn1 = 48\n", "grid.n1"),
        ("[sim]\nnu = 7.0\n", "sim.nu"),
        ("[kick]\nN = 900\n", "kick.N"),
        ("[experiment]\nR = 2\n", "experiment.R"),
        ("record_every = 3\n", "record_every"),
        ("seed = 5\n", "seed"),
    ], ids=["grid.n1", "sim.nu", "kick.N", "experiment.R", "record_every", "seed"])
    def test_ignored_key_exits_3(self, tmp_path, text, key):
        # diag reads only experiment.input, eta and f_H2
        run_experiment(_cfg(), output=str(tmp_path / "runs"))
        cfg = _diag_cfg(tmp_path / "runs", text)
        assert run_experiment(cfg, output=str(tmp_path / "diag"), seed=3) == 3
        fail = json.loads((tmp_path / "diag" / "failure.json").read_text())
        assert key in fail["detail"]
        assert not (tmp_path / "diag" / "diag_report.json").exists()

    def test_read_keys_and_seed_pass_the_key_check(self, tmp_path):
        run_experiment(_cfg(), output=str(tmp_path / "runs"))
        cfg = _cfg(f"experiment = diag\n[experiment]\ninput = {tmp_path / 'runs'}\n"
                   "eta = 0.02\nf_H2 = 0.1\n")
        assert run_experiment(cfg, output=str(tmp_path / "diag"), seed=3) == 0
        rep = json.loads((tmp_path / "diag" / "diag_report.json").read_text())
        assert (rep["eta"], rep["f_H2"]) == (0.02, 0.1)


class TestProbeDriver:
    def test_success(self, tmp_path):
        cfg = _cfg(TINY.replace("experiment = decay", "experiment = probe")
                   .replace("t_end = 0.05\n", "")
                   .replace("eps = 1e-2\nn_ic = 2\n", "")
                   + "probe_t = 0.05\ndeltas = 1e-2,1e-3\n")
        assert run_experiment(cfg, output=str(tmp_path)) == 0
        rep = json.loads((tmp_path / "probe_report.json").read_text())
        assert rep["spread"] <= 3.0


#: a kicks config that ends in its [kick] section, where each test appends
#: its own keys; kicks reads sim.t_end only when it measures T (kick.T = 0),
#: so the tests that leave T at 0 take KICKS_T_V, which sets it
KICKS = """
experiment = kicks

[grid]
n1 = 6
n2 = 6
nz = 6

[sim]
dt_max = 0.005

[experiment]
n_chains = 2

[kick]
R = 0.25
"""
KICKS_T_V = KICKS.replace("dt_max = 0.005", "dt_max = 0.005\nt_end = 0.05")


class TestKicksDriver:
    def test_small_chain_run(self, tmp_path):
        cfg = _cfg(KICKS_T_V + "N = 6\nburn_in = 1\n")
        assert run_experiment(cfg, output=str(tmp_path)) == 0
        rep = json.loads((tmp_path / "kicks_report.json").read_text())
        assert rep["max_E2"] <= rep["bound_4R"] * (1 + 1e-6)
        assert (tmp_path / "chain_0.csv").exists()
        assert (tmp_path / "chain_1.csv").exists()

    def test_split_wasserstein_recomputed_from_chain_csvs(self, tmp_path):
        # the report's W1 distance comes from the chain CSVs' post-burn-in
        # E2 rows alone, and the run writes no other per-chain artifact
        N, burn_in = 13, 2
        cfg = _cfg(KICKS + f"T = 0.02\nN = {N}\nburn_in = {burn_in}\n")
        assert run_experiment(cfg, output=str(tmp_path)) == 0
        rep = json.loads((tmp_path / "kicks_report.json").read_text())
        col = CHAIN_HEADER.split(",").index("E2")
        pooled = [np.loadtxt(tmp_path / f"chain_{k}.csv", delimiter=",",
                             skiprows=1)[burn_in:, col] for k in range(2)]
        assert rep["split_wasserstein_E2"] == wasserstein1(pooled[0], pooled[1])
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "chain_0.csv", "chain_1.csv", "kicks_report.json"]

    def test_diverging_chain_names_its_chain_and_kick(self, tmp_path, monkeypatch):
        # nonlinear_B turns NaN once two kicks are drawn, so the flow of
        # kick 3 of chain 0 diverges on its first step: the step's own
        # diagnostics (t within the kick, the chain-wide step count) plus
        # where in the run it failed
        drawn = []
        draw, real_B = kicks.draw_kick, dynamics.nonlinear_B

        def counting_draw(*args, **kw):
            drawn.append(1)
            return draw(*args, **kw)

        def poisoned(*args, **kw):
            B = real_B(*args, **kw)
            if len(drawn) >= 2:
                B.data[...] = np.nan
            return B

        monkeypatch.setattr(kicks, "draw_kick", counting_draw)
        monkeypatch.setattr(dynamics, "nonlinear_B", poisoned)
        cfg = _cfg(KICKS + "T = 0.02\nN = 6\nburn_in = 1\n")
        with np.errstate(invalid="ignore"):
            assert run_experiment(cfg, output=str(tmp_path)) == 3
        fail = json.loads((tmp_path / "failure.json").read_text())
        assert fail["kind"] == "error"
        assert fail["detail"].startswith("state diverged")
        diag = fail["diagnostics"]
        assert set(diag) == {"t", "step", "dt", "H_before", "chain", "kick"}
        assert (diag["chain"], diag["kick"], diag["t"]) == (0, 3, 0.0)
        # two kicks of four steps of dt_max = 0.005 came before
        assert (diag["step"], diag["dt"]) == (8, 0.005)
        assert not (tmp_path / "chain_0.csv").exists()

    def test_T_V_probes_ignore_record_every(self):
        # record_every thins the CSVs only; the probes' decay times are
        # shorter than 5 steps, so a thinned record would round them up
        text = (KICKS_T_V.replace("t_end = 0.05", "t_end = 0.5")
                .replace("dt_max = 0.005", "dt_max = 0.01"))
        T1, T5 = (measure_T_V(_cfg(text.replace(
            "experiment = kicks", f"experiment = kicks\nrecord_every = {k}")))
                  for k in (1, 5))
        assert max(T1[1]) < 5 * 0.01
        assert T1 == T5


#: every config key but ``experiment``, each set to a value other than its
#: default
EVERY_KEY = """
output_dir = elsewhere
record_every = 2
seed = 5

[grid]
L1 = 2.0
L2 = 0.5
h = 0.3
n1 = 8
n2 = 9
nz = 10

[sim]
nu = 0.5
dt_max = 0.02
cfl = 0.3
t_end = 2.0

[kick]
T = 0.1
R = 0.5
n_modes = 3
N = 20
burn_in = 3

[experiment]
R = 2.0
eps = 0.1
n_ic = 2
n_chains = 3
f_H2 = 0.2
window_frac = 0.5
eta = 0.1
deltas = 0.1
probe_t = 0.2
input = runs
"""


def _non_default_keys(cfg) -> set[str]:
    """The keys of ``cfg`` whose values differ from their defaults, the
    top-level ones by name and the section ones as ``section.key``."""
    blocks = [("", cfg)] + [(f"{name}.", getattr(cfg, attr))
                            for name, (attr, _) in _SECTIONS.items()]
    return {prefix + f.name for prefix, block in blocks for f in fields(block)
            if f.name != "experiment" and not is_dataclass(getattr(block, f.name))
            and getattr(block, f.name) != f.default}


class TestIgnoredKeys:
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_every_unread_key_is_named(self, experiment):
        # no key is exempt: with every key set, the check names exactly the
        # keys outside the experiment's read set.  output_dir is
        # run_experiment's own, and kicks reads no sim.t_end once kick.T is set
        cfg = parse_config(f"experiment = {experiment}\n{EVERY_KEY}")
        keys = _non_default_keys(cfg)
        assert keys == set(_TOP_SCHEMA) - {"experiment"} | {
            f"{name}.{key}" for name, schema in _SECTION_SCHEMA.items() for key in schema}
        read = _READS[experiment]
        unread = {key for key in keys - {"output_dir"}
                  if key not in read and key.split(".")[0] not in read}
        with pytest.raises(InputError) as e:
            _reject_ignored(cfg)
        named = str(e.value).split("; remove ")[1].split(", ")
        assert len(named) == len(unread) and set(named) == unread

    @pytest.mark.parametrize("text, key", [
        (TINY + "[kick]\nN = 500\n", "kick.N"),
        (TINY.replace("experiment = decay", "experiment = absorb"), "experiment.eps"),
        (KICKS_T_V + "T = 0.02\nN = 4\nburn_in = 1\n", "sim.t_end"),
        (KICKS_T_V.replace("experiment = kicks", "experiment = kicks\nrecord_every = 2"),
         "record_every"),
        (TINY.replace("experiment = decay", "experiment = probe"), "experiment.n_ic"),
    ], ids=["decay kick.N", "absorb eps", "kicks t_end with T", "kicks record_every",
            "probe n_ic"])
    def test_ignored_key_exits_3(self, tmp_path, text, key):
        # every experiment rejects a key it would parse and then ignore,
        # before its first step
        cfg = _cfg(text)
        assert run_experiment(cfg, output=str(tmp_path)) == 3
        fail = json.loads((tmp_path / "failure.json").read_text())
        assert fail["kind"] == "error"
        assert key in fail["detail"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["failure.json"]


class TestCli:
    def test_end_to_end_decay(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(TINY)
        code = main(["decay", "--config", str(cfg_path),
                     "--output", str(tmp_path / "out")])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_missing_config_exit_3(self, tmp_path):
        assert main(["decay", "--config", str(tmp_path / "none.cfg")]) == 3

    def test_invalid_config_exit_3(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("experiment = decay\n[sim]\ncfl = 7\n")
        assert main(["decay", "--config", str(cfg_path)]) == 3

    @pytest.mark.parametrize("experiment, text", [("decay", TINY), ("kicks", KICKS_T_V)])
    def test_negative_config_seed_exits_3(self, tmp_path, capsys, experiment, text):
        # numpy rejects a negative seed with a ValueError; the config check
        # rejects it first, as an invalid config
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(text.replace(f"experiment = {experiment}",
                                         f"experiment = {experiment}\nseed = -1"))
        assert main([experiment, "--config", str(cfg_path),
                     "--output", str(tmp_path / "out")]) == 3
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, text", [("decay", TINY), ("kicks", KICKS_T_V)])
    def test_negative_seed_flag_exits_3(self, tmp_path, capsys, experiment, text):
        # the --seed override is checked inside run_experiment's error
        # handling, so it leaves a failure.json of kind "error"
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(text)
        out = tmp_path / "out"
        assert main([experiment, "--config", str(cfg_path), "--seed", "-1",
                     "--output", str(out)]) == 3
        assert "seed must be >= 0" in capsys.readouterr().out
        assert json.loads((out / "failure.json").read_text())["kind"] == "error"
        assert sorted(p.name for p in out.iterdir()) == ["failure.json"]

    def test_non_utf8_config_exits_3(self, tmp_path, capsys):
        # a UTF-16 file is no UTF-8 text: reported as an unreadable config,
        # before any output directory exists
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_bytes(b"\xff\xfe" + TINY.encode("utf-16-le"))
        out = tmp_path / "out"
        assert main(["decay", "--config", str(cfg_path), "--output", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"ERROR: cannot read config {cfg_path}")
        assert not out.exists()

    def test_output_under_a_file_exits_3(self, tmp_path, capsys):
        # no directory can be made below a regular file, so no failure.json
        # can be written either: one ERROR line names the directory
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(TINY)
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
        assert main(["decay", "--config", str(cfg_path), "--output", str(out)]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            f"ERROR (decay): cannot create {out}: ")
        assert (tmp_path / "file").read_text() == ""

    def test_experiment_mismatch_exit_3(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(TINY)
        assert main(["probe", "--config", str(cfg_path)]) == 3

    def test_experiment_mismatch_creates_no_output_dir(self, tmp_path):
        # config errors exit before run_experiment, so no directory (and no
        # failure.json) is made even when --output names one
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(TINY)
        out = tmp_path / "out"
        assert main(["probe", "--config", str(cfg_path), "--output", str(out)]) == 3
        assert not out.exists()

    def test_seed_flag_propagates(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(TINY)
        main(["decay", "--config", str(cfg_path), "--seed", "5",
              "--output", str(tmp_path / "a")])
        main(["decay", "--config", str(cfg_path), "--seed", "5",
              "--output", str(tmp_path / "b")])
        main(["decay", "--config", str(cfg_path), "--seed", "6",
              "--output", str(tmp_path / "c")])
        a = (tmp_path / "a" / "decay_0.csv").read_bytes()
        assert a == (tmp_path / "b" / "decay_0.csv").read_bytes()
        assert a != (tmp_path / "c" / "decay_0.csv").read_bytes()


def _grid8(text: str) -> str:
    return text.replace("n1 = 6\nn2 = 6\nnz = 6", "n1 = 8\nn2 = 8\nnz = 8")


class TestSeedKey:
    @pytest.mark.parametrize("experiment, text", [
        ("decay", _grid8(TINY)),
        ("kicks", _grid8(KICKS) + "T = 0.02\nN = 4\nburn_in = 1\n")])
    def test_config_seed_and_seed_argument_agree(self, tmp_path, experiment, text):
        # seed = 7 in the config and --seed 7 are one seed: the same bytes
        keyed = text.replace(f"experiment = {experiment}",
                             f"experiment = {experiment}\nseed = 7")
        assert run_experiment(_cfg(keyed), output=str(tmp_path / "key")) == 0
        assert run_experiment(_cfg(text), seed=7, output=str(tmp_path / "arg")) == 0
        names = sorted(p.name for p in (tmp_path / "key").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "arg").iterdir())
        assert sum(name.endswith(".csv") for name in names) == 2
        for name in names:
            assert (tmp_path / "key" / name).read_bytes() == (
                tmp_path / "arg" / name).read_bytes()

    def test_decay_members_follow_the_table(self, tmp_path):
        # the experiments docstring's table: decay member i uses seed + i
        cfg = _cfg(_grid8(TINY))
        assert run_experiment(cfg, seed=7, output=str(tmp_path)) == 0
        for i in range(cfg.exp.n_ic):
            v0 = _scaled_ic(cfg.grid, 7 + i, cfg.exp.R, "experiment.R")
            diag = read_trajectory_csv(tmp_path / f"decay_{i}.csv")
            assert diag.H2[0] == norm_H(v0) ** 2
