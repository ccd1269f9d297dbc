"""The benchmark's traced replay still finds every name its per-layer metrics are built on.

``perfbench/traced.py`` drops a per-layer metric, with only a warning on
stderr, once the public name or counter behind it is gone; the benchmark
result then lacks a metric ``BENCHMARK.json`` declares.  This replays one
short command and checks that every metric is there and prints as strict
JSON.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from horizon.config import ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load_metrics(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # metrics.py imports spans
    spec = importlib.util.spec_from_file_location("perfbench_metrics", PERFBENCH / "metrics.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_noise_sweep_reports_every_per_layer_metric(tmp_path, monkeypatch, capsys):
    cfg = ExperimentConfig.from_dict({"d_range": [0, 2]}).to_dict()
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    summary_path = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "traced.py"), str(summary_path), "noise-sweep",
         "--config", str(cfg_path), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert "perfbench: warning" not in proc.stderr

    metrics = _load_metrics(monkeypatch)
    trace = metrics.TraceSummary([json.loads(summary_path.read_text(encoding="utf-8"))])
    measured_outside = {"trace.overhead_frac", "trace.self_share", "fail_frac", "top_err",
                        *metrics.COMMAND_METRIC.values()}
    values = metrics.per_layer_metrics(trace, dict.fromkeys(measured_outside, 0.0))
    assert set(values) == set(metrics.PER_LAYER)
    json.dumps(values, allow_nan=False)
    assert "perfbench: warning" not in capsys.readouterr().err
