"""``src/horizon`` holds what the commands run: every public function runs in some command.

The four commands run in this process under ``sys.setprofile`` on four
small configs that between them name every signal kind, both methods
and both noise norms; chirp noise is the signal of one, so the target
takes the route of a signal's lines.  A public function or method (``__call__``
included) that never runs must be in ``UNREACHED``, with what keeps it:
the benchmark metric or probe built on it.  A function that stops
running, or one on the list that starts to, fails the test, so reference
routes that only tests use move to ``tests/oracles.py`` instead of
staying in the library.  No command evaluates a kernel derivative: every
``_accel.bump_derivative_values`` call they make is at order 0.
"""

import inspect
import json
import sys

from horizon import _accel, cli, config, kernels, polynomials, predictor, signals, spectral_core, weighted_space

MODULES = (_accel, cli, config, kernels, polynomials, predictor, signals, spectral_core, weighted_space)

#: public name never run by a command -> the benchmark metric that keeps it
UNREACHED = {
    "kernels.TargetKernel.derivative_mp": "perfbench kernels.derivative_mp.* metrics",
    "kernels.bump_poly_exact": "perfbench kernels.derivative_mp.* metrics, through derivative_mp",
    "predictor.PredictorKernel.needs_extended": "perfbench predictor.extended_share counter",
    "_accel.oscillatory_transform": "perfbench accel.oscillatory_transform.* metrics",
    "signals.class_norm": "perfbench probe.py membership gate and signals.class_norm.self_s",
}

#: config overrides; each config runs all four commands
CONFIGS = (
    {"d_range": [0, 2]},
    {"method": "projection", "p": 1, "d_range": [0, 2],
     "signal": {"kind": "gaussian", "params": {"sigma": 0.5}},
     "noise": {"kind": "poisson", "params": {"a": 1.0}}},
    {"d_range": [1, 2], "signal": {"kind": "zero", "params": {}},
     "noise": {"kind": "cosine_modulated_poisson", "params": {"a": 1.5, "omega0": 2.0}}},
    {"d_range": [0, 2], "signal": {"kind": "chirp_noise", "params": {"band": [6.0, 12.0], "amplitude": 1.0}}},
)


def _public_functions():
    """{code object: dotted name} of every public function and method defined in the modules."""
    out = {}
    for module in MODULES:
        prefix = module.__name__.removeprefix("horizon.")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = member.fget if isinstance(member, property) else getattr(member, "__func__", member)
                    if inspect.isfunction(member) and (not attr.startswith("_") or attr == "__call__"):
                        out[member.__code__] = f"{prefix}.{name}.{attr}"
            elif callable(obj) and not name.startswith("_"):
                out[inspect.unwrap(obj).__code__] = f"{prefix}.{name}"
    return out


def test_every_public_function_runs_or_is_listed(tmp_path):
    for module in MODULES:  # a cached result must not hide a call
        for obj in vars(module).values():
            getattr(obj, "cache_clear", lambda: None)()
    paths = []
    for i, overrides in enumerate(CONFIGS):
        path = tmp_path / f"c{i}.json"
        path.write_text(json.dumps(overrides), encoding="utf-8")
        paths.append(path)
    seen, orders = set(), set()
    bump = _accel.bump_derivative_values.__code__

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)
            if frame.f_code is bump:
                orders.add(frame.f_locals["k"])

    sys.setprofile(profile)
    try:
        codes = [cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")])
                 for path in paths for command in cli._COMMANDS]
    finally:
        sys.setprofile(None)
    assert codes == [cli.EXIT_OK] * len(codes)
    assert orders == {0}, "a command evaluated a kernel derivative"
    never = {name for code, name in _public_functions().items() if code not in seen}
    assert sorted(never - set(UNREACHED)) == [], "never run: move it to tests/oracles.py, or list what keeps it"
    assert sorted(set(UNREACHED) - never) == [], "listed, but a command runs it"
