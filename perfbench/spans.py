"""Span recording around the public functions of each horizon layer.

The traced replay installs wrappers from outside the program.  Every
public function, and every public method of a public class, defined in a
layer module is wrapped where it is defined; every other module
attribute bound to the same function object (a ``from .x import y``
binding, including the package re-exports) is pointed at the wrapper.

A span is ``[name, parent, start, end]`` with ``parent`` the index of the
enclosing span; its name is ``<layer>.<function or method>``.  Own time
is a span's duration minus the part of it covered by its child spans; a
layer's self time is the own time of all its spans.  A function's self
time also counts its same-layer callees (see ``layer_times``).  Spans are
kept in memory and summarised when the process ends.  The recorder
assumes one thread, which is how the benchmark runs the CLI.

A public name that no longer exists is simply not wrapped: the metric
layer sees that it is missing from ``Recorder.installed`` and drops the
metrics built on it, so deleting code never stops the replay.
"""

import contextlib
import functools
import inspect
import sys
import time

#: layer name (the prefix of its span and metric names) -> horizon module;
#: ``cli`` is the root span of a command
LAYERS = {name: name for name in ("cli", "config", "predictor", "kernels", "polynomials",
                                  "weighted_space", "spectral_core", "signals")}
LAYERS["accel"] = "_accel"


def warn(message):
    print(f"perfbench: warning: {message}", file=sys.stderr)


class Recorder:
    """Spans, counters and installed span names of one traced process."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.installed = set()
        self.broken = set()
        self._stack = []
        self._paused = False

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, time.perf_counter(), None])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _count(self, key, counter, args, kwargs):
        """Add counter(*args, **kwargs) to counts[key], outside any span."""
        if key in self.broken:
            return
        self._paused = True
        try:
            self.counts[key] = self.counts.get(key, 0.0) + float(counter(*args, **kwargs))
        except Exception as exc:  # a changed signature must not stop the replay
            self.broken.add(key)
            warn(f"counter {key} dropped: {type(exc).__name__}: {exc}")
        finally:
            self._paused = False

    def wrap(self, name, fn, counters=None):
        """Return fn wrapped in a span called ``name``.

        ``counters`` maps a counter name to a function of fn's arguments;
        each is summed into ``counts[name + "." + counter]`` after the call.
        """
        counters = counters or {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
                for counter_name, counter in counters.items():
                    self._count(f"{name}.{counter_name}", counter, args, kwargs)

        self.installed.add(name)
        return wrapper


def _is_function(obj):
    return inspect.isfunction(obj) or (callable(obj) and hasattr(obj, "cache_info"))


def _wrap_methods(rec, layer, cls, counters):
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"{layer}.{attr}"
        if isinstance(member, (classmethod, staticmethod)):
            wrapped = rec.wrap(name, member.__func__, counters.get(name))
            setattr(cls, attr, type(member)(wrapped))
        elif inspect.isfunction(member):
            setattr(cls, attr, rec.wrap(name, member, counters.get(name)))


def install(rec, layers, bindings, counters=None):
    """Wrap the public names of each layer module and repoint bindings.

    ``layers`` maps a layer name to its module; ``bindings`` lists every
    module whose attributes may be bound to a wrapped function.
    ``counters`` maps a span name to the counters of ``Recorder.wrap``.
    """
    counters = counters or {}
    wrappers = {}
    for layer, module in layers.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                _wrap_methods(rec, layer, obj, counters)
            elif _is_function(obj):
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = (obj, rec.wrap(name, obj, counters.get(name)))
    for module in bindings:
        for attr, obj in list(vars(module).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])


def layer_of(name):
    return name.split(".")[0]


def self_times(spans):
    """Own time of each span: its duration minus the union of its children."""
    children = [[] for _ in spans]
    for _, parent, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for (_, _, start, end), kids in zip(spans, children):
        covered, reach = 0.0, start
        for kid_start, kid_end in sorted(kids):
            lo, hi = max(kid_start, reach), min(kid_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_times(spans, own):
    """Time each span spends in its own layer: own time plus that of its
    same-layer callees, so a public helper in the same module (a backend,
    a grid rule) still counts toward the function that called it."""
    out = list(own)
    for index in range(len(spans) - 1, -1, -1):  # children follow their parent
        parent = spans[index][1]
        if parent is not None and layer_of(spans[parent][0]) == layer_of(spans[index][0]):
            out[parent] += out[index]
    return out


def _inside_same_name(spans, index):
    """True when a same-layer caller chain above the span has its name (recursion)."""
    name, parent = spans[index][0], spans[index][1]
    while parent is not None and layer_of(spans[parent][0]) == layer_of(name):
        if spans[parent][0] == name:
            return True
        parent = spans[parent][1]
    return False


def summarize(spans):
    """Per span name: calls, ``own_s`` (summed own time), ``self_s`` (summed
    same-layer time, recursion counted once) and ``total_s`` (summed
    duration, recursion counted once)."""
    own = self_times(spans)
    in_layer = layer_times(spans, own)
    out = {}
    for index, (name, _, start, end) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "own_s": 0.0, "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += 1
        entry["own_s"] += own[index]
        if not _inside_same_name(spans, index):
            entry["self_s"] += in_layer[index]
            entry["total_s"] += end - start
    return out
