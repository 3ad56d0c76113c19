"""Outside-in tracer for the circleq layers.

The layers are the package's modules.  ``Tracer.install`` finds every public
function of each layer by ``__module__`` and replaces it at every place the
package binds it -- module globals, the ``circleq`` namespace, and
module-level dicts such as the CLI's command table -- with a wrapper that
records a span.  Nothing under ``src/`` changes, and a function that a later
refactor moves or re-exports is still found.  Methods and private helpers run
inside the span of the public function that calls them.

A span is ``(id, name, layer, start, end, parent id, job id, failed)``.
Spans stay in memory until the caller reads them; nothing is written to
disk.  A span's self time is its duration minus the durations of its direct
children.

In memory mode the wrapper records no spans; it keeps, per layer, the
largest tracemalloc peak seen inside any outermost call of that layer.
tracemalloc slows allocation-heavy code, so memory is measured in a pass of
its own and never mixed with span times.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
import types

PACKAGE = "circleq"
LAYERS = ("specfun", "hilbert", "fiducial", "coherent", "enhanced", "dynamics", "qevolve", "cli")


def layer_functions() -> dict:
    """{id(function): (function, "layer.name")} for every public function
    defined in a layer module."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, obj in vars(module).items():
            if (
                not name.startswith("_")
                and isinstance(obj, types.FunctionType)
                and obj.__module__ == module.__name__
            ):
                found[id(obj)] = (obj, f"{layer}.{name}")
    return found


def _bindings(targets: dict) -> list:
    """(container dict, key, original) for every place a target is bound."""
    places = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if id(value) in targets and value is targets[id(value)][0]:
                places.append((namespace, key, value))
            elif isinstance(value, dict) and not key.startswith("__"):
                for k, v in list(value.items()):
                    if id(v) in targets and v is targets[id(v)][0]:
                        places.append((value, k, v))
    return places


class Tracer:
    """Span recorder (``memory=False``) or per-layer tracemalloc peak
    recorder (``memory=True``) over the wrapped layer functions.

    ``observe`` names functions ("layer.name") whose arguments and results
    are kept for counting after the job; nothing is computed from them while
    a span is open.
    """

    def __init__(self, memory: bool = False, observe=()):
        self.memory = memory
        self.observe = frozenset(observe)
        self.spans = []
        self.observed = []  # (name, function, args, kwargs, result)
        self.peaks = {}  # layer -> bytes
        self.job = None
        self._stack = []
        self._next_id = 0
        self._patches = []

    # installation ---------------------------------------------------------
    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = layer_functions()
        wrappers = {}
        for fid, (fn, name) in targets.items():
            wrap = self._memory_wrapper if self.memory else self._span_wrapper
            wrappers[fid] = wrap(fn, name)
        for container, key, original in _bindings(targets):
            container[key] = wrappers[id(original)]
            self._patches.append((container, key, original))
        if self.memory:
            tracemalloc.start()
        return self

    def uninstall(self):
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches = []
        if self.memory:
            tracemalloc.stop()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # wrappers -------------------------------------------------------------
    def _span_wrapper(self, fn, name):
        tracer = self
        layer = name.split(".", 1)[0]
        clock = time.perf_counter
        observed = name in self.observe

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append((sid, name, layer, start, end, parent, tracer.job, failed))
            if observed:
                tracer.observed.append((name, fn, args, kwargs, result))
            return result

        return span

    def _memory_wrapper(self, fn, name):
        tracer = self
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = tracer._stack
            outermost = all(frame[0] != layer for frame in stack)
            tracer._fold_peak()
            base = tracemalloc.get_traced_memory()[0]
            frame = [layer, base, base]  # layer, memory at entry, peak seen
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._fold_peak()
                stack.pop()
                if outermost:
                    grown = frame[2] - frame[1]
                    tracer.peaks[layer] = max(tracer.peaks.get(layer, 0), grown)

        return span

    def _fold_peak(self):
        # every open frame has been open since the last reset, so the peak
        # since that reset belongs to all of them
        peak = tracemalloc.get_traced_memory()[1]
        for frame in self._stack:
            if peak > frame[2]:
                frame[2] = peak
        tracemalloc.reset_peak()

    # analysis -------------------------------------------------------------
    def self_times(self) -> list:
        """[(name, layer, job, self seconds, failed)] for every span."""
        child_time = {}
        for sid, _, _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        return [
            (name, layer, job, (end - start) - child_time.get(sid, 0.0), failed)
            for sid, name, layer, start, end, parent, job, failed in self.spans
        ]

    def root_names(self) -> dict:
        """{job: [names of that job's root spans]}."""
        roots = {}
        for _, name, _, _, _, parent, job, _ in self.spans:
            if parent < 0:
                roots.setdefault(job, []).append(name)
        return roots
