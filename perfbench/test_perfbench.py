"""Checks of the benchmark's own arithmetic, tracer and row checks.

Run: python -m pytest perfbench
"""

import json
import types
from pathlib import Path

import pytest

import metrics
import spans
import workloads


def test_self_time_arithmetic_on_synthetic_tree():
    tree = [
        ["cli", None, 0.0, 10.0],
        ["predictor.a", 0, 1.0, 6.0],
        ["predictor.b", 1, 2.0, 3.0],
        ["kernels.k", 1, 3.5, 5.0],
        ["accel.x", 3, 4.0, 4.5],
        ["polynomials.p", 0, 7.0, 9.0],
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx([3.0, 2.5, 1.0, 1.0, 0.5, 2.0])
    assert sum(own) == pytest.approx(10.0)  # own times tile the root span
    summary = spans.summarize(tree)
    assert summary["predictor.a"]["self_s"] == pytest.approx(3.5)  # + same-layer callee b
    assert summary["predictor.a"]["own_s"] == pytest.approx(2.5)
    assert summary["kernels.k"]["self_s"] == pytest.approx(1.0)  # accel child excluded


def test_overlapping_children_and_recursion_count_once():
    assert spans.self_times([["a.f", None, 0.0, 10.0], ["b.g", 0, 1.0, 5.0],
                             ["b.h", 0, 3.0, 7.0]])[0] == pytest.approx(4.0)
    summary = spans.summarize([["k.f", None, 0.0, 4.0], ["k.f", 0, 1.0, 3.0]])
    assert summary["k.f"] == pytest.approx({"calls": 2, "own_s": 4.0, "self_s": 4.0, "total_s": 4.0})


def _fake_layer():
    mod_a = types.ModuleType("fake.a")
    exec("def helper(x):\n    return x + 1\n\n"
         "def public(x):\n    return helper(x) * 2\n\n"
         "class K:\n"
         "    def method(self, x):\n        return public(x)\n"
         "    @classmethod\n    def make(cls):\n        return cls()\n", mod_a.__dict__)
    mod_b = types.ModuleType("fake.b")
    mod_b.public = mod_a.public  # a ``from .a import public`` binding
    return mod_a, mod_b


def test_install_wraps_definitions_and_from_import_bindings():
    mod_a, mod_b = _fake_layer()
    rec = spans.Recorder()
    spans.install(rec, {"a": mod_a}, [mod_a, mod_b], {"a.public": {"n": lambda x: x}})
    assert mod_b.public(1) == 4
    assert mod_a.K.make().method(2) == 6
    names = [s[0] for s in rec.spans]
    assert names == ["a.public", "a.helper", "a.make", "a.method", "a.public", "a.helper"]
    assert rec.spans[1][1] == 0 and rec.spans[4][1] == 3
    assert rec.counts == {"a.public.n": 3.0}
    assert {"a.public", "a.helper", "a.method", "a.make"} <= rec.installed


def test_missing_name_drops_only_its_metrics(capsys):
    summary = {"spans": {"predictor.target_values": {"calls": 1, "own_s": 0.5, "self_s": 0.5,
                                                     "total_s": 0.5}},
               "counts": {}, "installed": ["predictor.target_values"], "broken": [],
               "layers": ["predictor"]}
    out = metrics.per_layer_metrics(metrics.TraceSummary([summary]), {"top_err": 1e-3})
    assert out["predictor.target_values.self_s"] == 0.5
    assert out["predictor.self_s"] == 0.5
    assert out["top_err"] == 1e-3
    assert "predictor.predict_values.self_s" not in out
    assert "kernels.self_s" not in out
    assert "predictor.predict_values.self_s dropped" in capsys.readouterr().err


def test_metric_and_workload_names_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_seeded_configs():
    canon = workloads.WORKLOADS["canon"]
    assert workloads.make_config(canon, 0) == canon.config
    cfg = workloads.make_config(canon, 7)
    assert cfg == workloads.make_config(canon, 7)
    assert 1.2 <= cfg["signal"]["params"]["a"] <= 2.0
    shift = cfg["tgrid"]["t_min"] - canon.config["tgrid"]["t_min"]
    assert 0.0 <= shift < 0.1
    assert cfg["tgrid"]["t_max"] - cfg["tgrid"]["t_min"] == pytest.approx(4.0)


_ABOVE = "d,sup_error,bound\n0,1e-2,2e-2\n12,5e-1,1e-8\n"
_IN_SLACK = "d,sup_error,bound\n0,1e-2,2e-2\n12,1.5e-8,1e-8\n"  # above bound, within CLI slack


@pytest.mark.parametrize("text, exit_code, failed_rows, problem", [
    (_ABOVE, 4, 2, ""),                                   # loud violation: rows of the command fail
    (_ABOVE, 0, 1, "exit 0 with a row above its bound"),  # silent violation
    (_ABOVE, 1, 2, "exited with code 1"),
    (_IN_SLACK, 0, 1, ""),                                # the CLI passes it; the row still fails
    (_IN_SLACK, 4, 2, "exit 4 with every row within its bound"),
])
def test_row_checks(tmp_path, text, exit_code, failed_rows, problem):
    cfg = {"d_range": [0, 12], "d_step": 12}
    path = tmp_path / "convergence.csv"
    path.write_text(text)
    check = workloads.check_command("convergence", cfg, exit_code, path, {})
    assert (check.rows, check.failed_rows, check.problem) == (2, failed_rows, problem)
    assert check.top_err == float(text.splitlines()[-1].split(",")[1])  # sup_error at d = 12


@pytest.mark.parametrize("alphas, exit_code, failed_rows, problem", [
    ("0.5,0.4,0.3", 0, 0, ""),
    ("0.5,0.4,0.4000000000001", 0, 1, ""),  # rises by less than the CLI's 1e-12
    ("0.5,0.4,0.41", 4, 3, ""),
    ("0.5,0.4,0.41", 0, 1, "exit 0 with a row above its bound"),
])
def test_alpha_checks(tmp_path, alphas, exit_code, failed_rows, problem):
    cfg = {"method": "projection", "d_range": [0, 2], "d_step": 1}
    path = tmp_path / "alpha_sweep.csv"
    path.write_text("d,method,alpha,taylor_bound\n" + "".join(
        f"{d},projection,{a},1\n" for d, a in enumerate(alphas.split(","))))
    check = workloads.check_command("alpha-sweep", cfg, exit_code, path, {})
    assert (check.rows, check.failed_rows, check.problem) == (3, failed_rows, problem)
