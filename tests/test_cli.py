import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from horizon.cli import EXIT_CLASS, EXIT_CONFIG, main
from horizon.config import ConfigError, ExperimentConfig


@pytest.fixture()
def runner():
    return CliRunner()


def write_config(path, **overrides):
    cfg = {**ExperimentConfig().to_dict(), **overrides}
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


class TestConfig:
    def test_roundtrip_identity(self):
        cfg = ExperimentConfig()
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again == cfg
        assert ExperimentConfig.from_json(again.to_json()) == again

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
        ("kernel", {"kernel": 5}, "an object"),
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
        assert "config error: kernel.shape: expected 'bump', got 'mollified'" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["alpha-sweep", "convergence", "noise-sweep", "predict"])
    @pytest.mark.parametrize("key, value", [("T", 0.3), ("theta", 0.4), ("epsilon", 7)])
    def test_kernel_keys_beside_shape_are_config_errors(self, runner, tmp_path, command, key, value):
        # a kernel.T used to reshape h while psi_d kept the top-level T
        cfgp = write_config(tmp_path / "c.json", kernel={"shape": "bump", key: value},
                            d_range=[0, 4], output_dir=str(tmp_path / "out"))
        result = runner.invoke(main, [command, "--config", str(cfgp)])
        assert result.exit_code == EXIT_CONFIG, result.output
        assert f"config error: kernel.{key}: unknown key" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kernel", [{}, {"shape": "bump"}])
    def test_bump_kernel_spec_is_accepted(self, kernel):
        h = ExperimentConfig.from_dict({"T": 0.3, "theta": 0.4, "kernel": kernel}).build_kernel()
        assert (h.T, h.theta) == (0.3, 0.4)

    def test_json_error_carries_position(self):
        with pytest.raises(ConfigError, match="line 1"):
            ExperimentConfig.from_json("{bad json")

    def test_ds_expansion(self):
        cfg = ExperimentConfig.from_dict({"d_range": [2, 8], "d_step": 3})
        assert cfg.ds == [2, 5, 8]


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
        # 2a <= r makes the spectral-energy factor diverge; beta refuses it
        cfgp = write_config(tmp_path / "c.json",
                            signal={"kind": "poisson", "params": {"a": 0.9}},
                            d_range=[0, 2], output_dir=str(tmp_path / "out"))
        for command in ("convergence", "noise-sweep"):
            result = runner.invoke(main, [command, "--config", str(cfgp)])
            assert result.exit_code == EXIT_CLASS, result.output
            assert "refusing: signal outside class: beta integral diverges" in result.output

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

    def test_sample_route_reads_signal_once_per_row_block(self, runner, tmp_path, monkeypatch):
        # d = 0..4 all take the sample route: the target and the one
        # sample-moment table of the sweep each evaluate x once per row
        # block, not once per degree
        from horizon import predictor, signals
        from horizon.kernels import derivative_panel_edges
        from horizon.spectral_core import gauss_legendre_edges

        calls = []
        real_poisson = signals.poisson_signal

        def counted_poisson(a):
            base = real_poisson(a)

            def time(t):
                calls.append(np.shape(t))
                return base.time(t)

            return replace(base, time=time)

        monkeypatch.setattr(signals, "poisson_signal", counted_poisson)
        tgrid = {"t_min": -2.0, "t_max": 2.0, "n_points": 201}
        cfgp = write_config(tmp_path / "c.json", d_range=[0, 4], tgrid=tgrid,
                            output_dir=str(tmp_path / "out"))
        result = runner.invoke(main, ["convergence", "--config", str(cfgp)])
        assert result.exit_code == 0, result.output
        h = ExperimentConfig().build_kernel()
        target_nodes = predictor._target_rule(h)[0]
        table_nodes = gauss_legendre_edges(derivative_panel_edges(h.width, 4))[0]
        expected = [(rows.stop - rows.start, nodes.size)
                    for nodes in (target_nodes, table_nodes)
                    for rows in predictor._row_blocks(tgrid["n_points"], nodes.size)]
        assert len(expected) == 4
        assert calls == expected

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
        # read once for the whole sweep, on a grid of two row blocks, and its
        # derivative stack is never evaluated on that route
        from dataclasses import replace

        from horizon import predictor, signals

        calls = []
        real_chirp = signals.chirp_noise

        def counted_chirp(band, amplitude):
            base = real_chirp(band, amplitude)

            def lines(t_scale):
                calls.append("lines")
                return base.lines(t_scale)

            def derivatives(kmax, t):
                calls.append(kmax)
                return base.derivatives(kmax, t)

            return replace(base, lines=lines, derivatives=derivatives)

        monkeypatch.setattr(signals, "chirp_noise", counted_chirp)
        tgrid = {"t_min": -2.0, "t_max": 2.0, "n_points": 201}
        cfgp = write_config(tmp_path / "c.json", d_range=[6, 12], tgrid=tgrid,
                            output_dir=str(tmp_path / "out"))
        result = runner.invoke(main, ["noise-sweep", "--config", str(cfgp)])
        assert result.exit_code == 0, result.output
        nodes, _ = predictor._target_rule(ExperimentConfig().build_kernel())
        assert len(predictor._row_blocks(tgrid["n_points"], nodes.size)) == 2
        assert calls == ["lines"]

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

    def test_summary_rows_carry_every_key(self, runner, tmp_path):
        cfgp = write_config(tmp_path / "c.json", d_range=[0, 4], d_step=2,
                            output_dir=str(tmp_path / "out"))
        result = runner.invoke(main, ["convergence", "--config", str(cfgp)])
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "out" / "convergence_summary.json").read_text())
        assert [row["d"] for row in summary["rows"]] == [0, 2, 4]
        for row in summary["rows"]:
            assert set(row) == {"alpha", "beta", "bound", "d", "method", "runtime_ms", "sup_error"}


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
        # every command runs without mpmath: alpha is summed in exact rationals
        import os
        import subprocess
        import sys
        from pathlib import Path

        import horizon

        args = [command, "--out", str(tmp_path / "out")]
        if method_range is not None:
            method, d_range = method_range
            args += ["--config", str(write_config(tmp_path / "c.json", method=method, d_range=d_range))]
        src = str(Path(horizon.__file__).resolve().parent.parent)
        code = ("import sys\nfrom horizon.cli import main\n"
                "try:\n    main(sys.argv[1:])\nfinally:\n    print('mpmath' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"


class TestRemovedOptions:
    def test_threads_option_rejected(self, runner, tmp_path):
        cfgp = write_config(tmp_path / "c.json", d_range=[0, 2],
                            output_dir=str(tmp_path / "out"))
        result = runner.invoke(main, ["alpha-sweep", "--config", str(cfgp), "--threads", "2"])
        assert result.exit_code == 2
        assert "No such option" in result.output
        assert not (tmp_path / "out").exists()

    def test_precision_option_rejected(self, runner, tmp_path):
        cfgp = write_config(tmp_path / "c.json", d_range=[0, 2],
                            output_dir=str(tmp_path / "out"))
        result = runner.invoke(main, ["convergence", "--config", str(cfgp),
                                      "--precision", "double"])
        assert result.exit_code == 2
        assert "No such option" in result.output
        assert not (tmp_path / "out").exists()
