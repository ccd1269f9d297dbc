"""Metric names, units and the per-layer arithmetic of the benchmark.

BENCHMARK.json lists the same names; ``test_perfbench.py`` keeps them in step.
"""

import numpy as np

from spans import LAYERS, layer_of, warn

#: metric name -> unit, printed by ``--trace 0``.  Every workload reports
#: all of them: set-up probe time, wall time of one pass over the
#: workload's commands, peak RSS of its largest command process, and the
#: share of output rows within their bound.
END_TO_END = {
    "setup_s": "s",
    "commands_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "share",
}

#: command -> metric holding its untraced wall time
COMMAND_METRIC = {
    "alpha-sweep": "alpha_sweep_s",
    "convergence": "convergence_s",
    "noise-sweep": "noise_sweep_s",
    "predict": "predict_s",
}

#: metric name -> unit, printed by ``--trace 1``
PER_LAYER = {
    "predictor.predict_values.self_s": "s",
    "predictor.predict_values.calls": "count",
    "predictor.extended_share": "share",
    "kernels.derivative_mp.calls": "count",
    "kernels.derivative_mp.self_s": "s",
    "predictor.target_values.self_s": "s",
    "predictor.beta_energy.self_s": "s",
    "predictor.beta_energy.calls": "count",
    "predictor.transfer_norms.self_s": "s",
    "kernels.q_spectrum.self_s": "s",
    "kernels.q_spectrum.freqs": "count",
    "spectral_core.fourier_transform_at.self_s": "s",
    "accel.oscillatory_transform.self_s": "s",
    "accel.oscillatory_transform.terms": "count",
    "accel.bump_derivative_values.self_s": "s",
    "accel.bump_derivative_values.nodes": "count",
    "polynomials.projection_psi.self_s": "s",
    "polynomials.alpha_closed_form.self_s": "s",
    "config.build_s": "s",
    "signals.class_norm.self_s": "s",
    "signals.noise_norm.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_frac": "share",
    "trace.self_share": "share",
    **{name: "s" for name in COMMAND_METRIC.values()},
    "top_err": "abs",
    "fail_frac": "share",
}

#: span name -> {counter: function of the wrapped call's arguments}
COUNTERS = {
    "predictor.predict_values": {"extended": lambda pk, *a, **k: pk.needs_extended()},
    "kernels.q_spectrum": {"freqs": lambda h, omegas, *a, **k: np.size(omegas)},
    "accel.oscillatory_transform": {
        "terms": lambda t_nodes, t_weights, f_vals, omegas, *a, **k: np.size(omegas) * np.size(t_nodes)},
    "accel.bump_derivative_values": {"nodes": lambda u, *a, **k: np.size(u)},
}


class Missing(LookupError):
    """A metric's span, layer or counter does not exist in this program."""


class TraceSummary:
    """Span summaries of one workload's traced commands, merged."""

    def __init__(self, summaries):
        self.spans, self.counts = {}, {}
        self.installed, self.broken, self.layers = {"cli"}, set(), {"cli"}
        for summary in summaries:
            for name, entry in summary["spans"].items():
                acc = self.spans.setdefault(name, dict.fromkeys(entry, 0))
                for key in acc:
                    acc[key] += entry[key]
            for key, value in summary["counts"].items():
                self.counts[key] = self.counts.get(key, 0.0) + value
            self.installed.update(summary["installed"])
            self.broken.update(summary["broken"])
            self.layers.update(summary["layers"])

    def span(self, name):
        if name not in self.installed:
            raise Missing(f"no public name {name}")
        return self.spans.get(name, {"calls": 0, "own_s": 0.0, "self_s": 0.0, "total_s": 0.0})

    def count(self, key):
        span_name, _, counter = key.rpartition(".")
        if counter not in COUNTERS.get(span_name, {}) or key in self.broken:
            raise Missing(f"no counter {key}")
        self.span(span_name)
        return self.counts.get(key, 0.0)

    def layer_self(self, layer):
        if layer not in self.layers:
            raise Missing(f"no layer module {layer}")
        return sum(e["own_s"] for n, e in self.spans.items() if layer_of(n) == layer)

    def self_total(self):
        return sum(e["own_s"] for e in self.spans.values())

    def extended_share(self):
        calls = self.span("predictor.predict_values")["calls"]
        return self.count("predictor.predict_values.extended") / calls if calls else 0.0

    def build_s(self):
        names = [n for n in self.installed if n.startswith("config.build_")]
        if not names:
            raise Missing("no config.build_* methods")
        return sum(self.span(n)["total_s"] for n in names)


def layer_metric(name, trace, extra):
    """Value of one per-layer metric; ``extra`` holds those measured outside the trace."""
    if name in extra:
        return extra[name]
    if name == "predictor.extended_share":
        return trace.extended_share()
    if name == "config.build_s":
        return trace.build_s()
    head, _, field = name.rpartition(".")
    if field == "self_s" and head in LAYERS:
        return trace.layer_self(head)
    if field in ("self_s", "calls"):
        return trace.span(head)[field]
    return trace.count(name)


def per_layer_metrics(trace, extra):
    """Every per-layer metric that exists; a missing one is dropped with a warning."""
    out = {}
    for name in PER_LAYER:
        try:
            out[name] = layer_metric(name, trace, extra)
        except Missing as exc:
            warn(f"per-layer metric {name} dropped: {exc}")
    return out
