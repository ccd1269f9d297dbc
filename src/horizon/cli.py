"""Experiment harness: config-driven sweeps emitting CSV and JSON.

Exit codes: 0 success, 2 config error, 3 refusal (the signal lies
outside the class, or its bound exceeds the double range), 4 bound
violation.  CSV output is deterministic (no wall-clock columns,
full-precision scientific notation); per-row runtimes go to the JSON
summary, which is not covered by the byte-identity guarantee.
"""

import functools
import json
import math
import sys
import time
from pathlib import Path

import click
import numpy as np

from .config import ConfigError, ExperimentConfig
from .polynomials import (
    alpha_closed_form,
    projection_psi,
    taylor_alpha_bound,
    taylor_psi,
)
from .predictor import (
    BoundRangeError,
    ClassMembershipError,
    build_predictor,
    error_bound_parts,
    moment_tables,
    predict_values,
    target_values,
    transfer_norms,
)
from .signals import noise_norm

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CLASS = 3
EXIT_BOUND = 4

_BOUND_SLACK = 1e-8


def _write_csv(path, header, rows):
    """Header and an iterable of rows, streamed: str cells as they are, numbers as ``{:.16e}``.

    Each row is formatted by one ``str.format`` with the format of the
    first row, so a row with str and number cells swapped raises; the
    partly written file is then deleted, so no truncated CSV is left.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = iter(rows)
    first = next(rows, None)
    try:
        with path.open("w", encoding="utf-8", newline="\n") as f:
            f.write(",".join(header) + "\n")
            if first is not None:
                fmt = ",".join("{:s}" if isinstance(c, str) else "{:.16e}" for c in first) + "\n"
                f.write(fmt.format(*first))
                f.writelines(fmt.format(*row) for row in rows)
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def _exit_codes(command):
    """Map a config error to exit 2, and a class-membership or bound-range refusal to exit 3."""

    @functools.wraps(command)
    def wrapped(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
        except (ClassMembershipError, BoundRangeError) as exc:
            click.echo(f"refusing: {exc}", err=True)
            sys.exit(EXIT_CLASS)

    return wrapped


def _load_config(config_path, out):
    if config_path is None:
        cfg = ExperimentConfig()
    else:
        cfg = ExperimentConfig.load(config_path)
    if out is not None:
        cfg = ExperimentConfig.from_dict({**cfg.to_dict(), "output_dir": str(out)})
    return cfg


def _psi_for(cfg, d):
    if cfg.method == "taylor":
        return taylor_psi(cfg.T, d)
    return projection_psi(cfg.T, cfg.r, d)


def common_options(fn):
    fn = click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
                      default=None, help="JSON experiment config (canonical defaults if omitted).")(fn)
    fn = click.option("--out", type=click.Path(file_okay=False), default=None,
                      help="Output directory (overrides config output_dir).")(fn)
    return fn


@click.group()
@click.version_option(package_name="horizon")
def main():
    """Limited-memory spectral predictor experiments."""


@main.command("alpha-sweep")
@common_options
@_exit_codes
def cmd_alpha_sweep(config_path, out):
    """Sweep the weighted approximation error alpha over the degree range."""
    cfg = _load_config(config_path, out)
    results = []
    for d in cfg.ds:
        psi = _psi_for(cfg, d)
        alpha = alpha_closed_form(psi, cfg.T, cfg.r)
        bound = taylor_alpha_bound(cfg.T, cfg.r, d) if cfg.T < cfg.r else None
        results.append((d, alpha, bound))

    rows = [(d, cfg.method, alpha, "" if bound is None else f"{bound:.16e}")
            for d, alpha, bound in results]
    path = Path(cfg.output_dir) / "alpha_sweep.csv"
    _write_csv(path, ["d", "method", "alpha", "taylor_bound"], rows)
    click.echo(f"wrote {path}")

    if cfg.method == "projection":
        alphas = [alpha for _, alpha, _ in results]
        if any(a2 > a1 + 1e-12 for a1, a2 in zip(alphas, alphas[1:])):
            click.echo("bound violation: projection alpha is not non-increasing", err=True)
            sys.exit(EXIT_BOUND)


@main.command("convergence")
@common_options
@_exit_codes
def cmd_convergence(config_path, out):
    """Prediction-error convergence over the degree range, with bounds."""
    cfg = _load_config(config_path, out)
    x = cfg.build_signal()
    h = cfg.build_kernel()
    ts = cfg.build_tgrid().nodes
    pks = [build_predictor(h, _psi_for(cfg, d)) for d in cfg.ds]
    parts = error_bound_parts(pks, x, cfg.r)
    y = target_values(h, x, ts)
    results = []
    for pk, table, (alpha, beta, bound) in zip(pks, moment_tables(pks, x, ts), parts):
        start = time.perf_counter()
        sup = float(np.max(np.abs(y - predict_values(pk, table))))
        results.append({"d": pk.d, "method": cfg.method, "sup_error": sup, "bound": bound,
                        "alpha": alpha, "beta": beta,
                        "runtime_ms": 1000.0 * (time.perf_counter() - start)})

    path = Path(cfg.output_dir) / "convergence.csv"
    _write_csv(path, ["d", "sup_error", "bound"],
               [(row["d"], row["sup_error"], row["bound"]) for row in results])

    smallest = next((row["d"] for row in results if row["sup_error"] <= cfg.eps_target), None)
    summary = {
        "method": cfg.method,
        "eps_target": cfg.eps_target,
        "smallest_d_within_target": smallest,
        "rows": results,
    }
    spath = Path(cfg.output_dir) / "convergence_summary.json"
    spath.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    click.echo(f"wrote {path} and {spath}")

    for row in results:
        if row["sup_error"] > row["bound"] + _BOUND_SLACK:
            click.echo(f"bound violation at d={row['d']}: {row['sup_error']:.3e} > {row['bound']:.3e}",
                       err=True)
            sys.exit(EXIT_BOUND)


@main.command("noise-sweep")
@common_options
@_exit_codes
def cmd_noise_sweep(config_path, out):
    """Total prediction error under noise versus the robustness bound."""
    cfg = _load_config(config_path, out)
    x0 = cfg.build_signal()
    h = cfg.build_kernel()
    ts = cfg.build_tgrid().nodes
    eta_unit = cfg.build_noise()
    unit_norm = noise_norm(eta_unit, cfg.p)
    if unit_norm <= 0:
        raise ConfigError("noise: zero spectrum")

    pks = [build_predictor(h, _psi_for(cfg, d)) for d in cfg.ds]
    parts = error_bound_parts(pks, x0, cfg.r)
    norms = transfer_norms(pks, cfg.p)  # on the transfer band
    y = target_values(h, x0, ts)
    rows = []
    for pk, (_, _, eps_bound), (n_hhat, n_h), table0, table_unit in zip(
            pks, parts, norms, moment_tables(pks, x0, ts), moment_tables(pks, eta_unit, ts)):
        y_hat0 = predict_values(pk, table0)
        conv_unit = predict_values(pk, table_unit)
        slope = 1.0 / (2.0 * math.pi) * (n_hhat + n_h)  # (nu / 2 pi)(||Hhat_d|| + ||H||) at nu = 1
        for nu in cfg.nu_range:
            scale = nu / unit_norm
            total = float(np.max(np.abs(y - y_hat0 - scale * conv_unit)))
            rows.append((nu, pk.d, total, eps_bound + nu * slope))

    rows.sort(key=lambda row: (row[0], row[1]))
    path = Path(cfg.output_dir) / "noise_sweep.csv"
    _write_csv(path, ["nu", "d", "empirical_total_error", "bound_total"],
               [(nu, float(d), emp, bnd) for nu, d, emp, bnd in rows])
    click.echo(f"wrote {path}")

    for nu, d, emp, bnd in rows:
        if emp > bnd + _BOUND_SLACK:
            click.echo(f"bound violation at nu={nu}, d={d}: {emp:.3e} > {bnd:.3e}", err=True)
            sys.exit(EXIT_BOUND)


@main.command("predict")
@common_options
@click.option("--times", default=None,
              help="Comma-separated prediction times (default: the config time grid).")
@_exit_codes
def cmd_predict(config_path, out, times):
    """Single-shot prediction dump at the top degree of the range."""
    cfg = _load_config(config_path, out)
    x = cfg.build_signal()
    h = cfg.build_kernel()
    if times is not None:
        try:
            ts = np.array([float(v) for v in times.split(",")])
        except ValueError as exc:
            raise ConfigError(f"times: {exc}") from exc
        if not np.all(np.isfinite(ts)):
            raise ConfigError(f"times: expected finite values, got {times!r}")
    else:
        ts = cfg.build_tgrid().nodes
    d = cfg.d_range[1]
    pk = build_predictor(h, _psi_for(cfg, d))
    y = target_values(h, x, ts)
    y_hat = predict_values(pk, moment_tables([pk], x, ts)[0])

    path = Path(cfg.output_dir) / "predict.csv"
    _write_csv(path, ["t", "y", "y_hat", "abs_err"],
               zip(ts.tolist(), y.tolist(), y_hat.tolist(), np.abs(y - y_hat).tolist()))
    click.echo(f"wrote {path}")


if __name__ == "__main__":
    main()
