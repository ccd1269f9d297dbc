"""Run one horizon CLI command in this process with layer spans recorded.

Usage: python perfbench/traced.py SUMMARY_JSON COMMAND [ARGS...]

Imports the layer modules, wraps their public names (see spans.py), then
runs ``python -m horizon.cli COMMAND ARGS...`` in this process under a
root span named ``cli``.  Writes the per-span summary, counters and the
installed names to SUMMARY_JSON and exits with the command's exit code.
"""

import importlib
import json
import runpy
import sys

import spans
from metrics import COUNTERS


def main(summary_path, args):
    rec = spans.Recorder()
    layers = {}
    for layer, module in spans.LAYERS.items():
        if layer == "cli":  # runs fresh below, as ``python -m`` would
            continue
        try:
            layers[layer] = importlib.import_module(f"horizon.{module}")
        except ImportError as exc:
            spans.warn(f"layer {layer} not traced: {exc}")
    bindings = [m for n, m in list(sys.modules.items()) if n == "horizon" or n.startswith("horizon.")]
    spans.install(rec, layers, bindings, COUNTERS)

    sys.argv = ["horizon", *args]
    code = 0
    with rec.span("cli"):
        try:
            runpy.run_module("horizon.cli", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            code = exc.code
    summary = {
        "spans": spans.summarize(rec.spans),
        "counts": rec.counts,
        "installed": sorted(rec.installed),
        "broken": sorted(rec.broken),
        "layers": sorted(layers),
    }
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
