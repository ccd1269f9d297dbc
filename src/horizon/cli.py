"""Experiment harness: config-driven sweeps emitting CSV and JSON.

Exit codes: 0 success, 2 config or usage error, 3 refusal (the signal lies
outside the class, its bound is past what double precision holds, or its
band is past what the kernel's rule resolves), 4 bound violation.  CSV
output is deterministic (no wall-clock columns, full-precision scientific
notation); per-row runtimes go to the JSON summary, which is not covered
by the byte-identity guarantee.

Each command imports what it runs: ``alpha-sweep`` only the numpy-free
modules imported here.  The numeric commands import ``predictor`` first,
then numpy: compiled without a bytecode cache, ``predictor`` takes some
1.2 MiB for a moment, which numpy's import then reuses.
"""

import argparse
import json
import math
import sys
import time
from pathlib import Path

from . import __version__
from .config import BoundRangeError, ClassMembershipError, ConfigError, ExperimentConfig
from .polynomials import alpha_closed_form, projection_psi, taylor_alpha_bound, taylor_psi

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


def _load_config(args):
    """The config of ``--config`` (canonical defaults if omitted), ``--out`` its output directory.

    The output directory may be missing, but not a file: a bad path is a
    config error, refused before anything is written.
    """
    cfg = ExperimentConfig() if args.config is None else ExperimentConfig.load(args.config)
    if args.out is not None:
        cfg = ExperimentConfig.from_dict({**cfg.to_dict(), "output_dir": args.out})
    out = Path(cfg.output_dir)
    if out.exists() and not out.is_dir():
        key = "output_dir" if args.out is None else "--out"
        raise ConfigError(f"{key}: {out} exists and is not a directory")
    return cfg


def _psi_for(cfg, d):
    if cfg.method == "taylor":
        return taylor_psi(cfg.T, d)
    return projection_psi(cfg.T, cfg.r, d)


def cmd_alpha_sweep(args):
    """Sweep the weighted approximation error alpha over the degree range."""
    cfg = _load_config(args)
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
    print(f"wrote {path}")

    if cfg.method == "projection":
        alphas = [alpha for _, alpha, _ in results]
        if any(a2 > a1 + 1e-12 for a1, a2 in zip(alphas, alphas[1:])):
            print("bound violation: projection alpha is not non-increasing", file=sys.stderr)
            return EXIT_BOUND
    return EXIT_OK


def cmd_convergence(args):
    """Prediction-error convergence over the degree range, with bounds."""
    from .predictor import PredictorKernel, error_bound_parts, moment_table, predict_values, target_values
    import numpy as np

    cfg = _load_config(args)
    x = cfg.build_signal()
    h = cfg.build_kernel()
    ts = cfg.build_tgrid()
    pks = [PredictorKernel(h, _psi_for(cfg, d)) for d in cfg.ds]
    parts = error_bound_parts(pks, x, cfg.r)
    y = target_values(h, x, ts)
    table = moment_table(h, x, ts, max(cfg.ds))
    results = []
    for pk, (alpha, beta, bound) in zip(pks, parts):
        start = time.perf_counter()
        sup = float(np.max(np.abs(y - predict_values(pk, table))))
        results.append({"d": pk.d, "method": cfg.method, "sup_error": sup, "bound": bound,
                        "alpha": alpha, "beta": beta, "window_points": table.window_points,
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
    print(f"wrote {path} and {spath}")

    for row in results:
        if row["sup_error"] > row["bound"] + _BOUND_SLACK:
            print(f"bound violation at d={row['d']}: {row['sup_error']:.3e} > {row['bound']:.3e}",
                  file=sys.stderr)
            return EXIT_BOUND
    return EXIT_OK


def cmd_noise_sweep(args):
    """Total prediction error under noise versus the robustness bound."""
    from .predictor import (PredictorKernel, error_bound_parts, moment_table, predict_values, target_values,
                            transfer_norms)
    from .signals import noise_norm
    import numpy as np

    cfg = _load_config(args)
    x0 = cfg.build_signal()
    h = cfg.build_kernel()
    ts = cfg.build_tgrid()
    eta_unit = cfg.build_noise()
    unit_norm = noise_norm(eta_unit, cfg.p)
    if unit_norm <= 0:
        raise ConfigError("noise: zero spectrum")

    pks = [PredictorKernel(h, _psi_for(cfg, d)) for d in cfg.ds]
    parts = error_bound_parts(pks, x0, cfg.r)
    norms = transfer_norms(pks, cfg.p)  # on the transfer band
    y = target_values(h, x0, ts)
    table0, table_unit = (moment_table(h, x, ts, max(cfg.ds)) for x in (x0, eta_unit))
    rows = []
    for pk, (_, _, eps_bound), (n_hhat, n_h) in zip(pks, parts, norms):
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
    print(f"wrote {path}")

    for nu, d, emp, bnd in rows:
        if emp > bnd + _BOUND_SLACK:
            print(f"bound violation at nu={nu}, d={d}: {emp:.3e} > {bnd:.3e}", file=sys.stderr)
            return EXIT_BOUND
    return EXIT_OK


def cmd_predict(args):
    """Single-shot prediction dump at the top degree of the range."""
    from .predictor import PredictorKernel, moment_table, predict_values, target_values
    import numpy as np

    cfg = _load_config(args)
    x = cfg.build_signal()
    h = cfg.build_kernel()
    if args.times is not None:
        try:
            ts = np.array([float(v) for v in args.times.split(",")])
        except ValueError as exc:
            raise ConfigError(f"times: {exc}") from exc
        if not np.all(np.isfinite(ts)):
            raise ConfigError(f"times: expected finite values, got {args.times!r}")
    else:
        ts = cfg.build_tgrid()
    d = cfg.d_range[1]
    pk = PredictorKernel(h, _psi_for(cfg, d))
    y = target_values(h, x, ts)
    y_hat = predict_values(pk, moment_table(h, x, ts, d))

    path = Path(cfg.output_dir) / "predict.csv"
    _write_csv(path, ["t", "y", "y_hat", "abs_err"],
               zip(ts.tolist(), y.tolist(), y_hat.tolist(), np.abs(y - y_hat).tolist()))
    print(f"wrote {path}")
    return EXIT_OK


#: subcommand -> function; each returns its exit code
_COMMANDS = {
    "alpha-sweep": cmd_alpha_sweep,
    "convergence": cmd_convergence,
    "noise-sweep": cmd_noise_sweep,
    "predict": cmd_predict,
}
#: option -> help; each takes one value, and ``--times`` is predict's alone
_OPTIONS = {
    "--config": "JSON experiment config (canonical defaults if omitted).",
    "--out": "Output directory (overrides config output_dir).",
    "--times": "Comma-separated prediction times (default: the config time grid).",
}


def _parser():
    parser = argparse.ArgumentParser(prog="horizon",
                                     description="Limited-memory spectral predictor experiments.")
    parser.add_argument("--version", action="version", version=f"horizon, version {__version__}")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    for name, command in _COMMANDS.items():
        doc = command.__doc__.splitlines()[0]
        sub = commands.add_parser(name, help=doc, description=doc, allow_abbrev=False)
        sub.set_defaults(command=command)
        for option, text in _OPTIONS.items():
            if option != "--times" or name == "predict":
                sub.add_argument(option, help=text)
    return parser


def _attach_values(argv):
    """argv with each ``OPTION VALUE`` of ``_OPTIONS`` joined into ``OPTION=VALUE``.

    argparse takes an argument that starts with '-' and is not a plain
    number for an option, so ``--times -1.0,0.0,1.0`` would lack its
    value; an option's value is the next argument, whatever it is.
    """
    out = []
    for arg in argv:
        if out and out[-1] in _OPTIONS:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    """Run one command and return its exit code; a usage error exits 2, ``--version`` 0."""
    args = _parser().parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.command(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ClassMembershipError, BoundRangeError) as exc:
        print(f"refusing: {exc}", file=sys.stderr)
        return EXIT_CLASS


if __name__ == "__main__":
    sys.exit(main())
