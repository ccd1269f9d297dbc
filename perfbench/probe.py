"""Set-up probe: what every command pays before its first degree.

Usage: python perfbench/probe.py CONFIG_JSON

Imports ``horizon.cli``, loads the config, builds the kernel, signal and
time grid and passes the class-membership gate.  The caller times the
whole process.  Prints one JSON line with the numba flag of the build.
"""

import json
import sys

import horizon.cli  # noqa: F401  the import every command pays
from horizon.config import ExperimentConfig
from horizon.signals import class_norm

cfg = ExperimentConfig.load(sys.argv[1])
x = cfg.build_signal()
cfg.build_kernel()
cfg.build_tgrid()
if not class_norm(x, cfg.r).member:
    sys.exit(3)
print(json.dumps({"has_numba": getattr(sys.modules.get("horizon._accel"), "HAS_NUMBA", None)}))
