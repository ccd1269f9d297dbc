"""Every command's CSV is byte-identical to the hashes in ``golden_csv.json``.

All four commands run as subprocesses with one BLAS thread, as the
benchmark runs them, on three configs: the benchmark's canon and
proj-p1-hi configs (seed 0) and the dense-double config on 2001 times.
A change that moves a digit of any of these CSVs updates the JSON and
says which cells moved, and why, in CHANGES.md.  The hashes hold for one
numpy and BLAS build: another BLAS kernel may round a sum differently.
To write the JSON from the current code, printing each CSV whose hash
moved (old and new prefix) and how many did not:

    PYTHONPATH=src python tests/test_golden_csv.py
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_csv.json"

_POISSON = {"kind": "poisson", "params": {"a": 1.5}}
_NU = [0.0, 0.01, 0.1]
CONFIGS = {
    "canon": {"method": "taylor", "p": 2, "d_range": [0, 12], "d_step": 12,
              "tgrid": {"t_min": -2.0, "t_max": 2.0, "n_points": 41}, "signal": _POISSON, "nu_range": _NU},
    "proj-p1-hi": {"method": "projection", "p": 1, "d_range": [0, 16], "d_step": 16,
                   "tgrid": {"t_min": -2.0, "t_max": 2.0, "n_points": 5}, "signal": _POISSON, "nu_range": _NU},
    "dense-2001": {"method": "taylor", "p": 2, "d_range": [0, 4], "d_step": 1,
                   "tgrid": {"t_min": -20.0, "t_max": 20.0, "n_points": 2001}, "signal": _POISSON, "nu_range": _NU},
}
#: command -> the CSV it writes
COMMANDS = {"alpha-sweep": "alpha_sweep.csv", "convergence": "convergence.csv",
            "noise-sweep": "noise_sweep.csv", "predict": "predict.csv"}


def csv_hashes(name, work):
    """{"<config>/<csv>": SHA-256} of every command run on config ``name`` in the directory ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    config = work / "config.json"
    config.write_text(json.dumps(CONFIGS[name]), encoding="utf-8")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    hashes = {}
    for command, csv_name in COMMANDS.items():
        run = subprocess.run([sys.executable, "-m", "horizon.cli", command, "--config", str(config),
                              "--out", str(work)], env=env, capture_output=True, text=True)
        assert run.returncode == 0, f"{name} {command}: exit {run.returncode}\n{run.stderr}"
        hashes[f"{name}/{csv_name}"] = hashlib.sha256((work / csv_name).read_bytes()).hexdigest()
    return hashes


@pytest.mark.parametrize("name", list(CONFIGS))
def test_csv_bytes_match_golden(tmp_path, name):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = csv_hashes(name, tmp_path)
    assert got == {key: value for key, value in golden.items() if key.startswith(name + "/")}


if __name__ == "__main__":
    import tempfile

    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        hashes = {k: v for name in CONFIGS for k, v in csv_hashes(name, Path(tmp) / name).items()}
    moved = sorted(k for k in hashes if old.get(k) != hashes[k])
    for key in moved:
        print(f"moved {key}: {old.get(key, 'none')[:12]} -> {hashes[key][:12]}")
    GOLDEN.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}: {len(moved)} moved, {len(hashes) - len(moved)} unchanged")
