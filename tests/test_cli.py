import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import horizon
from horizon.cli import EXIT_BOUND, EXIT_CLASS, EXIT_CONFIG, main
from horizon.config import ConfigError, ExperimentConfig

#: every module of the package that ``alpha-sweep`` loads: none imports numpy
ALPHA_SWEEP_MODULES = {"horizon", "horizon.cli", "horizon.config", "horizon.polynomials", "horizon.weighted_space"}


class Result(NamedTuple):
    exit_code: int
    output: str


class Runner:
    """Runs a command in this process: its exit code and its stdout and stderr together."""

    def invoke(self, command, args):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                code = command(args)
            except SystemExit as exc:
                code = exc.code
        return Result(code, out.getvalue())


@pytest.fixture()
def runner():
    return Runner()


def write_config(path, **overrides):
    cfg = {**ExperimentConfig().to_dict(), **overrides}
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def run_fresh(args):
    """Run a command in a fresh interpreter: (exit code, stdout, stderr, the names in sys.modules at exit)."""
    src = str(Path(horizon.__file__).resolve().parent.parent)
    code = ("import sys\nfrom horizon.cli import main\n"
            "try:\n    sys.exit(main(sys.argv[1:]))\nfinally:\n"
            "    print(' '.join(sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    *out, modules = proc.stdout.splitlines()
    return proc.returncode, "\n".join(out), proc.stderr, set(modules.split())


#: cases of ``test_bad_input_is_one_line_config_error``
BAD_INPUTS = ["signal-a-string", "signal-sigma-null", "noise-params-list", "not-utf8", "missing-config",
              "config-is-directory", "out-is-file", "tgrid-t-min-string", "tgrid-t-max-overflow",
              "tgrid-t-min-bool", "tgrid-unknown-key", "signal-a-overflow", "signal-a-nan", "signal-a-bool",
              "signal-unknown-param", "signal-flat-form", "noise-amplitude-nan", "noise-band-three",
              "signal-a-zero", "signal-sigma-negative", "noise-band-inverted"]


class TestConfig:
    def test_roundtrip_identity(self):
        cfg = ExperimentConfig()
        again = ExperimentConfig.from_json(json.dumps(cfg.to_dict()))
        assert again == cfg
        assert ExperimentConfig.from_json(json.dumps(again.to_dict())) == again

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            ExperimentConfig.from_dict({"horizonn": 1.0})

    def test_invalid_values_name_the_key(self):
        with pytest.raises(ConfigError, match="T:"):
            ExperimentConfig.from_dict({"T": -1.0})
        with pytest.raises(ConfigError, match="d_range"):
            ExperimentConfig.from_dict({"d_range": [5, 1]})
        with pytest.raises(ConfigError, match="p:"):
            ExperimentConfig.from_dict({"p": 3})

    @pytest.mark.parametrize("command", ["alpha-sweep", "convergence", "noise-sweep", "predict"])
    def test_degree_above_kernel_cap_is_config_error(self, runner, tmp_path, command):
        cfgp = write_config(tmp_path / "c.json", d_range=[0, 17], d_step=17,
                            output_dir=str(tmp_path / "out"))
        result = runner.invoke(main, [command, "--config", str(cfgp)])
        assert result.exit_code == EXIT_CONFIG, result.output
        assert "d_range" in result.output

    @pytest.mark.parametrize("key, overrides", [
        ("tgrid.n_points", {"tgrid": {"t_min": -2.0, "t_max": 2.0, "n_points": 2.5}}),
        ("d_step", {"d_step": 1.5}),
        ("d_range", {"d_range": [0, 4.5]}),
    ])
    def test_non_integer_field_is_config_error(self, runner, tmp_path, key, overrides):
        cfgp = write_config(tmp_path / "c.json", output_dir=str(tmp_path / "out"), **overrides)
        result = runner.invoke(main, ["convergence", "--config", str(cfgp)])
        assert result.exit_code == EXIT_CONFIG, result.output
        assert f"config error: {key}: expected an integer" in result.output

    @pytest.mark.parametrize("key, overrides, expected", [
        ("T", {"T": "0.5"}, "a finite number"),
        ("theta", {"theta": None}, "a finite number"),
        ("r", {"r": True}, "a finite number"),
        ("eps_target", {"eps_target": [1e-4]}, "a finite number"),
        ("nu_range", {"nu_range": 0.1}, "a list of numbers"),
        ("nu_range", {"nu_range": [0.0, "0.1"]}, "a finite number"),
        ("tgrid.t_min", {"tgrid": {"t_min": "a", "t_max": 2.0, "n_points": 41}}, "a finite number"),
        ("noise", {"noise": [1]}, "an object"),
        ("method", {"method": "spline"}, "taylor or projection"),
        ("p", {"p": 3}, "1 or 2"),
        ("tgrid", {"tgrid": [1]}, "an object"),
        ("signal", {"signal": "poisson"}, "an object"),
        ("output_dir", {"output_dir": 5}, "a string"),
        ("d_range", {"d_range": 5}, "[start, stop]"),
    ])
    def test_mistyped_field_names_the_key(self, runner, tmp_path, key, overrides, expected):
        overrides = {"output_dir": str(tmp_path / "out"), **overrides}
        cfgp = write_config(tmp_path / "c.json", **overrides)
        result = runner.invoke(main, ["noise-sweep", "--config", str(cfgp)])
        assert result.exit_code == EXIT_CONFIG, result.output
        assert f"config error: {key}: expected {expected}" in result.output

    @pytest.mark.parametrize("command, case", [
        *(pytest.param("noise-sweep", case, id=case) for case in BAD_INPUTS),
        *(pytest.param("alpha-sweep", case, id=f"alpha-sweep-{case}") for case in BAD_INPUTS),
    ])
    def test_bad_input_is_one_line_config_error(self, runner, tmp_path, command, case):
        # none of these may end in a traceback (exit 1), a refusal (exit 3), nan rows or
        # a silently dropped key, and none may write anything; 1e300 is written as the
        # JSON literal 1e400, which reads as inf.  alpha-sweep builds no signal, yet
        # checks every param's domain, and runs in a fresh interpreter that must not
        # load numpy
        out = tmp_path / "out"
        tgrid = {"t_min": -2.0, "t_max": 2.0, "n_points": 41}
        chirp = {"band": [6.0, 12.0], "amplitude": 1.0}
        overrides = {
            "signal-a-string": {"signal": {"kind": "poisson", "params": {"a": "x"}}},
            "signal-sigma-null": {"signal": {"kind": "gaussian", "params": {"sigma": None}}},
            "noise-params-list": {"noise": {"kind": "chirp_noise", "params": [1]}},
            "tgrid-t-min-string": {"tgrid": {**tgrid, "t_min": "a"}},
            "tgrid-t-max-overflow": {"tgrid": {**tgrid, "t_max": 1e300}},
            "tgrid-t-min-bool": {"tgrid": {**tgrid, "t_min": True}},
            "tgrid-unknown-key": {"tgrid": {**tgrid, "x": 1}},
            "signal-a-overflow": {"signal": {"kind": "poisson", "params": {"a": 1e300}}},
            "signal-a-nan": {"signal": {"kind": "poisson", "params": {"a": math.nan}}},
            "signal-a-bool": {"signal": {"kind": "poisson", "params": {"a": True}}},
            "signal-unknown-param": {"signal": {"kind": "poisson", "params": {"a": 1.5, "b": 2}}},
            "signal-flat-form": {"signal": {"kind": "poisson", "a": 1.5}},
            "noise-amplitude-nan": {"noise": {"kind": "chirp_noise", "params": {**chirp, "amplitude": math.nan}}},
            "noise-band-three": {"noise": {"kind": "chirp_noise", "params": {**chirp, "band": [6, 12, 13]}}},
            "signal-a-zero": {"signal": {"kind": "poisson", "params": {"a": 0}}},
            "signal-sigma-negative": {"signal": {"kind": "gaussian", "params": {"sigma": -1}}},
            "noise-band-inverted": {"noise": {"kind": "chirp_noise", "params": {**chirp, "band": [5, 3]}}},
        }.get(case, {})
        cfgp = write_config(tmp_path / "c.json", output_dir=str(out), **overrides)
        cfgp.write_text(cfgp.read_text(encoding="utf-8").replace("1e+300", "1e400"), encoding="utf-8")
        args = [command, "--config", str(cfgp)]
        if case == "not-utf8":
            cfgp.write_bytes(cfgp.read_bytes().replace(b"taylor", b"t\xe4ylor"))
        elif case == "missing-config":
            args[-1] = str(tmp_path / "missing.json")
        elif case == "config-is-directory":
            args[-1] = str(tmp_path)
        elif case == "out-is-file":
            out.write_text("", encoding="utf-8")
            args += ["--out", str(out)]
        if command == "alpha-sweep":
            code, stdout, output, modules = run_fresh(args)
            assert stdout == ""
            assert "numpy" not in modules
        else:
            code, output = runner.invoke(main, args)
        assert code == EXIT_CONFIG, output
        assert output.startswith("config error: ")
        assert output.count("\n") == 1, output
        assert not out.is_dir()

    @pytest.mark.parametrize("command", ["alpha-sweep", "convergence", "noise-sweep", "predict"])
    def test_removed_grid_key_is_config_error(self, runner, tmp_path, command):
        # the frequency grid fed only the noise norm, now in closed form
        cfgp = write_config(tmp_path / "c.json", grid={"omega_max": None, "n_points": 2048},
                            d_range=[0, 2], output_dir=str(tmp_path / "out"))
        result = runner.invoke(main, [command, "--config", str(cfgp)])
        assert result.exit_code == EXIT_CONFIG, result.output
        assert "config error: unknown config key(s): ['grid']" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["alpha-sweep", "convergence"])
    def test_mollified_kernel_is_config_error(self, runner, tmp_path, command):
        cfgp = write_config(tmp_path / "c.json", kernel={"shape": "mollified"},
                            d_range=[0, 4], output_dir=str(tmp_path / "out"))
        result = runner.invoke(main, [command, "--config", str(cfgp)])
        assert result.exit_code == EXIT_CONFIG, result.output
        assert "config error: unknown config key(s): ['kernel']" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["alpha-sweep", "convergence", "noise-sweep", "predict"])
    @pytest.mark.parametrize("key, value", [("T", 0.3), ("theta", 0.4), ("epsilon", 7)])
    def test_kernel_keys_beside_shape_are_config_errors(self, runner, tmp_path, command, key, value):
        # a kernel.T once reshaped h while psi_d kept the top-level T; the kernel
        # is the bump of the top-level T and theta, and no config names it
        cfgp = write_config(tmp_path / "c.json", kernel={"shape": "bump", key: value},
                            d_range=[0, 4], output_dir=str(tmp_path / "out"))
        result = runner.invoke(main, [command, "--config", str(cfgp)])
        assert result.exit_code == EXIT_CONFIG, result.output
        assert "config error: unknown config key(s): ['kernel']" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kernel", [{}, {"shape": "bump"}])
    def test_bump_kernel_spec_is_config_error(self, kernel):
        # the kernel key took only these one-valued specs, so it is gone
        with pytest.raises(ConfigError, match=r"unknown config key\(s\): \['kernel'\]"):
            ExperimentConfig.from_dict({"T": 0.3, "theta": 0.4, "kernel": kernel})
        h = ExperimentConfig.from_dict({"T": 0.3, "theta": 0.4}).build_kernel()
        assert (h.T, h.theta) == (0.3, 0.4)

    def test_json_error_carries_position(self):
        with pytest.raises(ConfigError, match="line 1"):
            ExperimentConfig.from_json("{bad json")

    def test_ds_expansion(self):
        cfg = ExperimentConfig.from_dict({"d_range": [2, 8], "d_step": 3})
        assert cfg.ds == [2, 5, 8]


class TestTimeGrid:
    def test_uniform_spacing(self):
        ts = ExperimentConfig.from_dict({"tgrid": {"t_min": -2.0, "t_max": 2.0, "n_points": 41}}).build_tgrid()
        assert ts.shape == (41,)
        np.testing.assert_allclose(np.diff(ts), 0.1, rtol=1e-12)

    def test_rejects_inverted_interval(self):
        with pytest.raises(ConfigError, match="tgrid.t_max"):
            ExperimentConfig.from_dict({"tgrid": {"t_min": 1.0, "t_max": -1.0, "n_points": 5}})

    @pytest.mark.parametrize("command", ["alpha-sweep", "convergence", "noise-sweep", "predict"])
    @pytest.mark.parametrize("tgrid, key", [
        ({"t_min": 1, "t_max": -1, "n_points": 1}, "tgrid.t_max"),
        ({"t_min": 0.5, "t_max": 0.5, "n_points": 5}, "tgrid.t_max"),
        ({"t_min": -1, "t_max": 1, "n_points": 1}, "tgrid.n_points"),
        ({"t_min": -1, "t_max": 1, "n_points": -3}, "tgrid.n_points"),
    ], ids=["inverted", "empty", "one-point", "negative-count"])
    def test_every_command_refuses_a_degenerate_grid(self, runner, tmp_path, command, tgrid, key):
        # alpha-sweep reads no time grid, but once wrote its CSV and exited 0
        # on a config that convergence refused
        out = tmp_path / "out"
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({"tgrid": tgrid, "output_dir": str(out)}), encoding="utf-8")
        result = runner.invoke(main, [command, "--config", str(cfgp)])
        assert result.exit_code == EXIT_CONFIG, result.output
        assert result.output.startswith(f"config error: {key}: ")
        assert result.output.count("\n") == 1, result.output
        assert not out.exists()


class TestAlphaSweep:
    def test_taylor_sweep(self, runner, tmp_path):
        cfgp = write_config(tmp_path / "c.json", d_range=[0, 6],
                            output_dir=str(tmp_path / "out"))
        result = runner.invoke(main, ["alpha-sweep", "--config", str(cfgp)])
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "out" / "alpha_sweep.csv").read_text().splitlines()
        assert lines[0] == "d,method,alpha,taylor_bound"
        assert len(lines) == 8
        alphas = [float(l.split(",")[2]) for l in lines[1:]]
        bounds = [float(l.split(",")[3]) for l in lines[1:]]
        assert all(a <= b for a, b in zip(alphas, bounds))

    def test_zero_horizon_all_zero(self, runner, tmp_path):
        cfgp = write_config(tmp_path / "c.json", T=1e-12, d_range=[0, 4],
                            output_dir=str(tmp_path / "out"))
        result = runner.invoke(main, ["alpha-sweep", "--config", str(cfgp)])
        assert result.exit_code == 0
        alphas = [float(l.split(",")[2])
                  for l in (tmp_path / "out" / "alpha_sweep.csv").read_text().splitlines()[1:]]
        assert all(a < 1e-20 for a in alphas)

    def test_projection_not_above_taylor(self, runner, tmp_path):
        out_t = tmp_path / "t"
        out_p = tmp_path / "p"
        cfg_t = write_config(tmp_path / "t.json", d_range=[0, 6], output_dir=str(out_t))
        cfg_p = write_config(tmp_path / "p.json", d_range=[0, 6], method="projection",
                             output_dir=str(out_p))
        assert runner.invoke(main, ["alpha-sweep", "--config", str(cfg_t)]).exit_code == 0
        assert runner.invoke(main, ["alpha-sweep", "--config", str(cfg_p)]).exit_code == 0
        at = [float(l.split(",")[2]) for l in (out_t / "alpha_sweep.csv").read_text().splitlines()[1:]]
        ap = [float(l.split(",")[2]) for l in (out_p / "alpha_sweep.csv").read_text().splitlines()[1:]]
        assert all(p <= t + 1e-12 for p, t in zip(ap, at))

    def test_projection_monotone_and_below_taylor_at_small_horizon(self, runner, tmp_path):
        # at T = 0.05, r = 1 alpha falls to about 1e-33, where a double solve of the Hankel
        # normal equations rose again at d = 15 and 16 while the command still exited 0
        alphas = {}
        for method in ("taylor", "projection"):
            out = tmp_path / method
            cfgp = write_config(tmp_path / f"{method}.json", method=method, T=0.05, r=1.0,
                                d_range=[0, 16], output_dir=str(out))
            result = runner.invoke(main, ["alpha-sweep", "--config", str(cfgp)])
            assert result.exit_code == 0, result.output
            lines = (out / "alpha_sweep.csv").read_text().splitlines()[1:]
            alphas[method] = [float(l.split(",")[2]) for l in lines]
        proj = alphas["projection"]
        assert len(proj) == 17
        assert all(a2 <= a1 * (1.0 + 1e-12) for a1, a2 in zip(proj, proj[1:]))
        assert all(p <= t * (1.0 + 1e-12) for p, t in zip(proj, alphas["taylor"]))

    def test_determinism(self, runner, tmp_path):
        cfgp = write_config(tmp_path / "c.json", d_range=[0, 5],
                            output_dir=str(tmp_path / "out"))
        assert runner.invoke(main, ["alpha-sweep", "--config", str(cfgp)]).exit_code == 0
        first = (tmp_path / "out" / "alpha_sweep.csv").read_bytes()
        assert runner.invoke(main, ["alpha-sweep", "--config", str(cfgp)]).exit_code == 0
        assert (tmp_path / "out" / "alpha_sweep.csv").read_bytes() == first

    def test_config_error_exit_code(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"T": -2}', encoding="utf-8")
        result = runner.invoke(main, ["alpha-sweep", "--config", str(bad)])
        assert result.exit_code == EXIT_CONFIG


class TestConvergence:
    def test_canonical_small_range(self, runner, tmp_path):
        cfgp = write_config(tmp_path / "c.json", d_range=[0, 4], d_step=2,
                            output_dir=str(tmp_path / "out"))
        result = runner.invoke(main, ["convergence", "--config", str(cfgp)])
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
        assert lines[0] == "d,sup_error,bound"
        rows = [l.split(",") for l in lines[1:]]
        assert len(rows) == 3
        for row in rows:
            assert float(row[1]) <= float(row[2]) + 1e-8
        summary = json.loads((tmp_path / "out" / "convergence_summary.json").read_text())
        assert {"method", "eps_target", "smallest_d_within_target", "rows"} <= set(summary)
        assert all("runtime_ms" in r for r in summary["rows"])

    def test_class_refusal(self, runner, tmp_path):
        # 2a < r makes the spectral-energy factor diverge; beta refuses it
        cfgp = write_config(tmp_path / "c.json",
                            signal={"kind": "poisson", "params": {"a": 0.9}},
                            d_range=[0, 2], output_dir=str(tmp_path / "out"))
        for command in ("convergence", "noise-sweep"):
            result = runner.invoke(main, [command, "--config", str(cfgp)])
            assert result.exit_code == EXIT_CLASS, result.output
            assert "refusing: signal outside class: beta integral diverges" in result.output

    def test_class_edge_accepted(self, runner, tmp_path):
        # at 2a = r the weight cancels |X|^2 and |Q|^2 keeps beta finite:
        # both bound-checking commands run, every row within its bound
        cfgp = write_config(tmp_path / "c.json",
                            signal={"kind": "poisson", "params": {"a": 1.0}},
                            d_range=[0, 2], output_dir=str(tmp_path / "out"))
        for command in ("convergence", "noise-sweep"):
            result = runner.invoke(main, [command, "--config", str(cfgp)])
            assert result.exit_code == 0, result.output

    def test_bound_beyond_double_range_is_its_own_refusal(self, runner, tmp_path):
        # sigma = 0.02 is in the class, but beta is about e^2500
        cfgp = write_config(tmp_path / "c.json",
                            signal={"kind": "gaussian", "params": {"sigma": 0.02}},
                            d_range=[0, 2], output_dir=str(tmp_path / "out"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, ["convergence", "--config", str(cfgp)])
        assert result.exit_code == EXIT_CLASS, result.output
        assert "refusing: bound exceeds double range" in result.output
        assert "outside class" not in result.output

    def test_narrow_kernel_taylor_sweep_within_bound(self, runner, tmp_path):
        # T = 0.05, theta = 1, r = 1: a direct quadrature against hhat_16
        # is 1.1e-8 off, against a bound of 1.1e-18, and exits 4; by
        # derivative transfer every degree reads a sup error of 1.7e-16,
        # the double-precision floor
        cfgp = write_config(tmp_path / "c.json", T=0.05, theta=1.0, r=1.0, d_range=[0, 16],
                            signal={"kind": "poisson", "params": {"a": 1.0}},
                            tgrid={"t_min": -3.0, "t_max": 3.0, "n_points": 41},
                            output_dir=str(tmp_path / "out"))
        result = runner.invoke(main, ["convergence", "--config", str(cfgp)])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("command", ["convergence", "noise-sweep"])
    def test_row_above_its_bound_exits_4(self, runner, tmp_path, monkeypatch, command):
        from horizon import predictor

        monkeypatch.setattr(predictor, "error_bound_parts", lambda pks, x, r: [(0.0, 0.0, 0.0)] * len(pks))
        cfgp = write_config(tmp_path / "c.json", d_range=[0, 2], output_dir=str(tmp_path / "out"))
        result = runner.invoke(main, [command, "--config", str(cfgp)])
        assert result.exit_code == EXIT_BOUND, result.output
        assert "bound violation at " in result.output

    @pytest.mark.parametrize("overrides", [
        {"signal": {"kind": "poisson", "params": {"a": 1.000001}}},
        {"signal": {"kind": "poisson", "params": {"a": 1.0001}}},
        {"T": 2.0, "theta": 0.5, "signal": {"kind": "poisson", "params": {"a": 1.000001}}},
        {"r": 4.0, "signal": {"kind": "cosine_modulated_poisson", "params": {"a": 5.656, "omega0": 4.5}}},
        {"r": 4.0, "signal": {"kind": "cosine_modulated_poisson", "params": {"a": 5.656, "omega0": 5.0}}},
        {"r": 4.0, "signal": {"kind": "cosine_modulated_poisson", "params": {"a": 5.656, "omega0": 3.0}}},
        {"signal": {"kind": "chirp_noise", "params": {"band": [6.0, 12.0], "amplitude": 1.0}}},
    ], ids=["poisson-1.000001", "poisson-1.0001", "wide-kernel-poisson-1.000001", "modulated-4.5",
            "modulated-5", "modulated-3", "chirp"])
    def test_beta_of_every_accepted_signal(self, runner, tmp_path, overrides):
        # configs whose beta the finite-decay grid and the tail heuristic
        # got wrong: 0 (a bound violation at d = 0), 14 % high, a 937 MiB
        # transform, refused as divergent, 2.5e-5 low and 4.5e-3 high
        from oracles import beta_fine_panels

        cfgp = write_config(tmp_path / "c.json", d_range=[0, 2], output_dir=str(tmp_path / "out"), **overrides)
        cfg = ExperimentConfig.load(cfgp)
        tracemalloc.start()
        try:
            result = runner.invoke(main, ["convergence", "--config", str(cfgp)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0, result.output
        assert peak < 8 << 20
        rows = json.loads((tmp_path / "out" / "convergence_summary.json").read_text())["rows"]
        ref = beta_fine_panels(cfg.build_kernel(), [cfg.build_signal()], cfg.r)[0]
        for row in rows:
            assert row["beta"] == pytest.approx(ref, rel=1e-12)
            assert row["bound"] > 0.0
        if overrides["signal"]["params"] == {"a": 1.0001} and "T" not in overrides:
            assert rows[0]["bound"] == pytest.approx(0.20518, rel=1e-4)  # 0.2191 with beta 14 % high

    def test_zero_signal_rows_zero(self, runner, tmp_path):
        cfgp = write_config(tmp_path / "c.json",
                            signal={"kind": "zero", "params": {}},
                            d_range=[0, 2], d_step=2,
                            output_dir=str(tmp_path / "out"))
        result = runner.invoke(main, ["convergence", "--config", str(cfgp)])
        assert result.exit_code == 0, result.output
        rows = (tmp_path / "out" / "convergence.csv").read_text().splitlines()[1:]
        assert all(float(r.split(",")[1]) == 0.0 for r in rows)


class TestNoiseSweep:
    def test_rows_and_bounds(self, runner, tmp_path):
        cfgp = write_config(tmp_path / "c.json", d_range=[2, 4], d_step=2,
                            nu_range=[0.0, 0.1], output_dir=str(tmp_path / "out"))
        result = runner.invoke(main, ["noise-sweep", "--config", str(cfgp)])
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "out" / "noise_sweep.csv").read_text().splitlines()
        assert lines[0] == "nu,d,empirical_total_error,bound_total"
        rows = [list(map(float, l.split(","))) for l in lines[1:]]
        assert len(rows) == 4
        for nu, d, emp, bnd in rows:
            assert emp <= bnd + 1e-8

    def test_projection_p1_degree_16_within_bound(self, runner, tmp_path):
        cfgp = write_config(tmp_path / "c.json", method="projection", p=1,
                            d_range=[0, 16], d_step=16,
                            tgrid={"t_min": -2.0, "t_max": 2.0, "n_points": 5},
                            output_dir=str(tmp_path / "out"))
        result = runner.invoke(main, ["noise-sweep", "--config", str(cfgp)])
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "out" / "noise_sweep.csv").read_text().splitlines()[1:]
        rows = [list(map(float, l.split(","))) for l in lines]
        (top,) = [r for r in rows if r[0] == 0.0 and r[1] == 16.0]
        assert top[2] <= top[3]

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("r", [4.0, 6.5, 8.0])
    def test_noise_normalized_past_the_old_grid_edge(self, runner, tmp_path, r, p):
        # the chirp band [6, 12] lies beyond 36.8 / r, where a frequency grid
        # sized by r used to end; the noise norm is exact at every r
        cfgp = write_config(tmp_path / "c.json", r=r, p=p, d_range=[0, 4], d_step=2,
                            signal={"kind": "poisson", "params": {"a": 0.875 * r}},
                            output_dir=str(tmp_path / "out"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, ["noise-sweep", "--config", str(cfgp)])
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "out" / "noise_sweep.csv").read_text().splitlines()[1:]
        rows = [list(map(float, l.split(","))) for l in lines]
        assert len(rows) == 9
        assert all(emp <= bnd for _, _, emp, bnd in rows)

    def test_zero_noise_is_config_error(self, runner, tmp_path):
        cfgp = write_config(tmp_path / "c.json", noise={"kind": "zero", "params": {}},
                            d_range=[0, 2], output_dir=str(tmp_path / "out"))
        result = runner.invoke(main, ["noise-sweep", "--config", str(cfgp)])
        assert result.exit_code == EXIT_CONFIG, result.output
        assert "config error: noise: zero spectrum" in result.output

    def test_chirp_lines_once_per_sweep(self, runner, tmp_path, monkeypatch):
        # d = 6..12 all predict by derivative transfer; the chirp's lines are
        # read once for the whole sweep, on a grid of two row blocks of the
        # lines, and its derivative stack is never evaluated on that route
        from dataclasses import replace

        from horizon import _accel, predictor, signals

        calls, n_lines = [], []
        real_chirp = signals.chirp_noise

        def counted_chirp(band, amplitude):
            base = real_chirp(band, amplitude)

            def lines(t_scale):
                calls.append("lines")
                n_lines.append(base.lines(t_scale)[0].size)
                return base.lines(t_scale)

            def derivatives(kmax, t):
                calls.append(kmax)
                return base.derivatives(kmax, t)

            return replace(base, lines=lines, derivatives=derivatives)

        monkeypatch.setattr(signals, "chirp_noise", counted_chirp)
        monkeypatch.setattr(_accel, "_BLOCK_ELEMENTS", 1 << 15)
        tgrid = {"t_min": -2.0, "t_max": 2.0, "n_points": 201}
        cfgp = write_config(tmp_path / "c.json", d_range=[6, 12], tgrid=tgrid,
                            output_dir=str(tmp_path / "out"))
        result = runner.invoke(main, ["noise-sweep", "--config", str(cfgp)])
        assert result.exit_code == 0, result.output
        assert len(predictor._row_blocks(tgrid["n_points"], n_lines[0], depth=4)) == 2
        assert calls == ["lines"]

    def test_high_band_chirp_noise_within_bound(self, runner, tmp_path):
        # chirp noise on band [300, 800] past the kernel's decay: each line's
        # H comes from a rule sized by its frequency.  A sum over the
        # kernel-sized target rule read |H| far above its true value there
        # and exited 4 with a false "bound violation at nu=0.1, d=1:
        # 3.618e+00 > 1.413e-01"
        cfgp = write_config(tmp_path / "c.json", T=2.0, theta=0.5, r=4.0, method="projection",
                            d_range=[0, 4], signal={"kind": "poisson", "params": {"a": 2.5}},
                            noise={"kind": "chirp_noise", "params": {"band": [300.0, 800.0], "amplitude": 1.0}},
                            nu_range=[0.0, 0.1], output_dir=str(tmp_path / "out"))
        result = runner.invoke(main, ["noise-sweep", "--config", str(cfgp)])
        assert result.exit_code == 0, result.output
        rows = [list(map(float, l.split(","))) for l in
                (tmp_path / "out" / "noise_sweep.csv").read_text().splitlines()[1:]]
        assert len(rows) == 10 and all(emp <= bound for _, _, emp, bound in rows)

    def test_zero_noise_rows_match_convergence(self, runner, tmp_path):
        cfgp = write_config(tmp_path / "c.json", d_range=[2, 2],
                            nu_range=[0.0], output_dir=str(tmp_path / "out"))
        assert runner.invoke(main, ["noise-sweep", "--config", str(cfgp)]).exit_code == 0
        assert runner.invoke(main, ["convergence", "--config", str(cfgp)]).exit_code == 0
        noise_row = (tmp_path / "out" / "noise_sweep.csv").read_text().splitlines()[1].split(",")
        conv_row = (tmp_path / "out" / "convergence.csv").read_text().splitlines()[1].split(",")
        assert float(noise_row[2]) == pytest.approx(float(conv_row[1]), rel=1e-12)


class TestSweepWork:
    """Each degree-free quantity is computed once per command, not once per degree."""

    @pytest.mark.parametrize("command", ["convergence", "noise-sweep"])
    def test_beta_once_per_command(self, runner, tmp_path, monkeypatch, command):
        from horizon import predictor

        calls = []
        real_beta = predictor.beta_energy

        def counted(*args, **kwargs):
            calls.append(1)
            return real_beta(*args, **kwargs)

        monkeypatch.setattr(predictor, "beta_energy", counted)
        cfgp = write_config(tmp_path / "c.json", d_range=[0, 4], output_dir=str(tmp_path / "out"))
        result = runner.invoke(main, [command, "--config", str(cfgp)])
        assert result.exit_code == 0, result.output
        assert len(calls) == 1

    def test_band_once_per_p1_noise_sweep(self, runner, tmp_path, monkeypatch):
        from horizon import predictor

        calls = []
        real_band = predictor._band_spectrum

        def counted(h):
            calls.append(1)
            return real_band(h)

        monkeypatch.setattr(predictor, "_band_spectrum", counted)
        cfgp = write_config(tmp_path / "c.json", method="projection", p=1, d_range=[0, 16], d_step=8,
                            tgrid={"t_min": -2.0, "t_max": 2.0, "n_points": 5},
                            output_dir=str(tmp_path / "out"))
        result = runner.invoke(main, ["noise-sweep", "--config", str(cfgp)])
        assert result.exit_code == 0, result.output
        assert len(calls) == 1

    def test_noise_sweep_peaks_below_two_megabytes(self, runner, tmp_path):
        # the canonical noise-sweep at d = 0 and 12 (the canon benchmark
        # workload), in-process: argument blocks, phase matrices and
        # transforms are formed in row blocks of about 256 KB; measured
        # 1.42 MB traced, 2.83 MB with 2 MB blocks and an unblocked
        # (lines x nodes) chirp matrix
        cfgp = write_config(tmp_path / "c.json", d_range=[0, 12], d_step=12,
                            output_dir=str(tmp_path / "out"))
        args = ["noise-sweep", "--config", str(cfgp)]
        assert runner.invoke(main, args).exit_code == 0  # imports and caches before tracing
        tracemalloc.start()
        try:
            result = runner.invoke(main, args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0, result.output
        assert peak < 2 << 20

    def test_few_times_deep_stack_peaks_below_one_mebibyte(self, runner, tmp_path):
        # the proj-p1-hi benchmark workload's noise-sweep: the d = 16 table on
        # 5 times takes the direct sum over the 368 nodes of the target rule,
        # in one column block of 250 KB (traced 0.48 MiB); one block of the
        # whole stack on a rule of 1,376 nodes traced 1.38 MiB
        cfgp = write_config(tmp_path / "c.json", method="projection", p=1, d_range=[0, 16], d_step=16,
                            tgrid={"t_min": -2.0, "t_max": 2.0, "n_points": 5},
                            output_dir=str(tmp_path / "out"))
        args = ["noise-sweep", "--config", str(cfgp)]
        assert runner.invoke(main, args).exit_code == 0  # imports and caches before tracing
        tracemalloc.start()
        try:
            result = runner.invoke(main, args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0, result.output
        assert peak < 1 << 20

    def test_summary_rows_carry_every_key(self, runner, tmp_path):
        cfgp = write_config(tmp_path / "c.json", d_range=[0, 4], d_step=2,
                            output_dir=str(tmp_path / "out"))
        result = runner.invoke(main, ["convergence", "--config", str(cfgp)])
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "out" / "convergence_summary.json").read_text())
        assert [row["d"] for row in summary["rows"]] == [0, 2, 4]
        for row in summary["rows"]:
            assert set(row) == {"alpha", "beta", "bound", "d", "method", "runtime_ms", "sup_error",
                                "window_points"}
            # the 5-deep derivative stack at 41 times pays for a window
            # of 32 points, not the 368 nodes of the target rule
            assert row["window_points"] == 32


class TestPredict:
    def test_explicit_times(self, runner, tmp_path):
        cfgp = write_config(tmp_path / "c.json", d_range=[0, 4],
                            output_dir=str(tmp_path / "out"))
        result = runner.invoke(main, ["predict", "--config", str(cfgp),
                                      "--times", "-1.0,0.0,1.0"])
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "out" / "predict.csv").read_text().splitlines()
        assert lines[0] == "t,y,y_hat,abs_err"
        assert len(lines) == 4
        for line in lines[1:]:
            t, y, y_hat, err = map(float, line.split(","))
            assert err == pytest.approx(abs(y - y_hat), rel=1e-12)

    def test_rerun_byte_identical(self, runner, tmp_path):
        cfgp = write_config(tmp_path / "c.json", d_range=[0, 6],
                            output_dir=str(tmp_path / "out"))
        args = ["predict", "--config", str(cfgp), "--times", "0.0,0.5"]
        assert runner.invoke(main, args).exit_code == 0
        first = (tmp_path / "out" / "predict.csv").read_bytes()
        assert runner.invoke(main, args).exit_code == 0
        assert (tmp_path / "out" / "predict.csv").read_bytes() == first

    def test_bad_times(self, runner, tmp_path):
        cfgp = write_config(tmp_path / "c.json", output_dir=str(tmp_path / "out"))
        result = runner.invoke(main, ["predict", "--config", str(cfgp), "--times", "a,b"])
        assert result.exit_code == EXIT_CONFIG

    @pytest.mark.parametrize("times", ["nan,inf,1", "0.5,-inf", "nan"])
    def test_non_finite_times_are_config_error(self, runner, tmp_path, times):
        cfgp = write_config(tmp_path / "c.json", output_dir=str(tmp_path / "out"))
        result = runner.invoke(main, ["predict", "--config", str(cfgp), "--times", times])
        assert result.exit_code == EXIT_CONFIG, result.output
        assert "config error: times: expected finite values" in result.output
        assert not (tmp_path / "out" / "predict.csv").exists()

    @pytest.mark.parametrize("sigma", [1e-7, 5e-324])
    def test_unresolved_signal_refused(self, tmp_path, sigma):
        # past the target rule's node cap: these once wrote rows of zeros
        # (1e-7) or NaN with RuntimeWarnings (5e-324) at exit 0
        cfgp = write_config(tmp_path / "c.json", signal={"kind": "gaussian", "params": {"sigma": sigma}},
                            output_dir=str(tmp_path / "out"))
        code, _, err, _ = run_fresh(["predict", "--config", str(cfgp)])
        assert code == EXIT_CLASS, err
        assert err.startswith("refusing: signal not resolved by the kernel's rule")
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert not (tmp_path / "out" / "predict.csv").exists()

    def test_sharp_resolved_signal_accepted(self, runner, tmp_path):
        cfgp = write_config(tmp_path / "c.json", signal={"kind": "gaussian", "params": {"sigma": 5e-4}},
                            output_dir=str(tmp_path / "out"))
        result = runner.invoke(main, ["predict", "--config", str(cfgp)])
        assert result.exit_code == 0, result.output


class TestCsvWriter:
    def test_rows_match_the_per_cell_format(self, tmp_path):
        from horizon.cli import _write_csv

        rows = [(0.0, -0.0, 5e-324, 1e300, "taylor", ""),
                (-1e300, 3, -5e-324, 0.1, "projection", "1.0000000000000000e+00")]
        _write_csv(tmp_path / "out.csv", ["a", "b", "c", "d", "e", "f"], rows)
        per_cell = [",".join(c if isinstance(c, str) else f"{float(c):.16e}" for c in row)
                    for row in rows]
        assert (tmp_path / "out.csv").read_bytes() == "\n".join(["a,b,c,d,e,f", *per_cell, ""]).encode()

    def test_row_with_cells_swapped_raises(self, tmp_path):
        from horizon.cli import _write_csv

        with pytest.raises(ValueError):
            _write_csv(tmp_path / "out.csv", ["a", "b"], [("x", 1.0), (1.0, "x")])
        assert not (tmp_path / "out.csv").exists()

    def test_dense_rows_stream_below_one_megabyte(self, tmp_path):
        import tracemalloc

        from horizon.cli import _write_csv

        cols = [np.linspace(-20.0, 20.0, 20001).tolist() for _ in range(4)]
        tracemalloc.start()
        try:
            _write_csv(tmp_path / "out.csv", ["t", "y", "y_hat", "abs_err"], zip(*cols))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert len((tmp_path / "out.csv").read_text().splitlines()) == 20002

    @pytest.mark.parametrize("method_range", [None, ("projection", [0, 16])],
                             ids=["default", "projection-0-16"])
    @pytest.mark.parametrize("command", ["alpha-sweep", "convergence", "noise-sweep", "predict"])
    def test_cli_import_leaves_mpmath_unloaded(self, tmp_path, command, method_range):
        # every command runs without mpmath: alpha is summed in exact integers;
        # nor does it import numpy.polynomial: the Gauss-Legendre rule is tabulated;
        # nor click: the front end is argparse.  alpha-sweep runs without numpy,
        # on the five numpy-free modules of the package
        args = [command, "--out", str(tmp_path / "out")]
        if method_range is not None:
            method, d_range = method_range
            args += ["--config", str(write_config(tmp_path / "c.json", method=method, d_range=d_range))]
        code, _, stderr, modules = run_fresh(args)
        assert code == 0, stderr
        assert not modules & {"mpmath", "numpy.polynomial", "click"}
        if command == "alpha-sweep":
            assert "numpy" not in modules
            assert {name for name in modules if name.split(".")[0] == "horizon"} == ALPHA_SWEEP_MODULES


class TestVersion:
    def test_version_option(self, runner):
        # the version comes from the package itself, so it works from a source checkout
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0, result.output
        assert "0.1.0" in result.output


class TestRemovedOptions:
    def test_threads_option_rejected(self, runner, tmp_path):
        cfgp = write_config(tmp_path / "c.json", d_range=[0, 2],
                            output_dir=str(tmp_path / "out"))
        result = runner.invoke(main, ["alpha-sweep", "--config", str(cfgp), "--threads", "2"])
        assert result.exit_code == 2
        assert "unrecognized arguments" in result.output
        assert not (tmp_path / "out").exists()

    def test_precision_option_rejected(self, runner, tmp_path):
        cfgp = write_config(tmp_path / "c.json", d_range=[0, 2],
                            output_dir=str(tmp_path / "out"))
        result = runner.invoke(main, ["convergence", "--config", str(cfgp),
                                      "--precision", "double"])
        assert result.exit_code == 2
        assert "unrecognized arguments" in result.output
        assert not (tmp_path / "out").exists()
