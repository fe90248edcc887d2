"""Span tracing of helmrad's layers, installed from outside the package.

``Tracer.install`` replaces the public functions in the namespace of each
traced helmrad module, including the specfun functions other modules import
by name, with a wrapper that records a span: name, parent, and start and end
on both the wall clock and the calling thread's CPU clock.  specfun is a
leaf layer, so its calls into itself are not recorded.  ``mpmath.workdps`` is
wrapped too: each precision context is attributed to the innermost
enclosing ``green`` or ``assembly`` span, which counts the
arbitrary-precision escalations of the two routes.  ``uninstall`` restores
the original functions, so untraced rounds run the program as shipped.

Spans stay in memory, in flat arrays, until ``write``.  Self time is a
span's CPU time minus that of its children on the same thread: the scan's
thread pool interleaves threads under the interpreter lock, so wall-clock
intervals of concurrent spans overlap and would count each other's work.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import threading
from array import array
from time import perf_counter, thread_time

import mpmath
import numpy as np

#: traced layers, one helmrad module each (problem is negligible)
LAYERS = ("specfun", "green", "assembly", "evaluate", "stability", "cli")
#: layers whose arbitrary-precision contexts count as escalations
ESCALATING = ("green", "assembly")


class Tracer:
    def __init__(self):
        self.names = []
        self.layer_of_name = []
        # one entry per span, in order of completion
        self.sid, self.parent = array("q"), array("q")
        self.name, self.thread = array("q"), array("q")
        self.wall0, self.wall1 = array("d"), array("d")
        self.cpu0, self.cpu1 = array("d"), array("d")
        self.escalations = []        # (layer, wall start, cpu seconds)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()      # one span is one row in 8 arrays
        self._local = threading.local()
        self._main_stack = []
        self._saved = []
        self._wrappers = {}

    # -- recording ---------------------------------------------------------

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, layer):
        index = len(self.names)
        self.names.append(name)
        self.layer_of_name.append(layer)
        main = self._main_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if layer == "specfun" and stack and stack[-1][1] == "specfun":
                return fn(*args, **kwargs)     # specfun calling itself
            # a worker thread's first span hangs off the main thread's
            # innermost open span
            top = stack or main
            parent = top[-1][0] if top else 0
            sid = next(self._ids)
            stack.append((sid, layer))
            w0, c0 = perf_counter(), thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                c1, w1 = thread_time(), perf_counter()
                stack.pop()
                with self._lock:
                    self.sid.append(sid)
                    self.parent.append(parent)
                    self.name.append(index)
                    self.thread.append(threading.get_native_id())
                    self.wall0.append(w0)
                    self.wall1.append(w1)
                    self.cpu0.append(c0)
                    self.cpu1.append(c1)
        return traced

    def _wrap_workdps(self, workdps):
        tracer = self

        class Context:
            def __init__(self, cm):
                self.cm, self.layer = cm, None

            def __enter__(self):
                if not getattr(tracer._local, "in_mp", False):
                    layers = [lay for _, lay in tracer._stack()
                              if lay in ESCALATING]
                    if layers:
                        self.layer = layers[-1]
                        tracer._local.in_mp = True
                        self.w0, self.c0 = perf_counter(), thread_time()
                return self.cm.__enter__()

            def __exit__(self, *exc):
                try:
                    return self.cm.__exit__(*exc)
                finally:
                    if self.layer is not None:
                        tracer._local.in_mp = False
                        tracer.escalations.append(
                            (self.layer, self.w0, thread_time() - self.c0))

        @functools.wraps(workdps)
        def traced_workdps(*args, **kwargs):
            return Context(workdps(*args, **kwargs))
        return traced_workdps

    # -- installation --------------------------------------------------------

    def install(self):
        modules = {lay: importlib.import_module(f"helmrad.{lay}")
                   for lay in LAYERS}
        layer_of_module = {mod.__name__: lay for lay, mod in modules.items()}
        wrappers = self._wrappers
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = layer_of_module.get(obj.__module__)
                if layer is None:
                    continue                  # numpy, problem, ...
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(
                        obj, f"{layer}.{obj.__name__}", layer)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
        self._saved.append((mpmath, "workdps", mpmath.workdps))
        mpmath.workdps = self._wrap_workdps(mpmath.workdps)

    def uninstall(self):
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls and self times, per-layer entries and escalations."""
        out = {"calls": {}, "self_s": {}, "layer_self_s": {}, "entries": {},
               "mp_escalations": {}, "mp_s": {}}
        for lay, _, seconds in self.escalations:
            out["mp_escalations"][lay] = out["mp_escalations"].get(lay, 0) + 1
            out["mp_s"][lay] = out["mp_s"].get(lay, 0.0) + seconds
        if not self.sid:
            return out
        sid = np.frombuffer(self.sid, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        thread = np.frombuffer(self.thread, dtype=np.int64)
        cpu = np.frombuffer(self.cpu1) - np.frombuffer(self.cpu0)
        # index of each span's parent among the recorded spans (-1: none)
        order = np.argsort(sid)
        pos = np.searchsorted(sid[order], parent)
        pos = np.minimum(pos, len(sid) - 1)
        found = sid[order][pos] == parent
        pidx = np.where(found, order[pos], -1)
        own = pidx >= 0
        same = own.copy()
        same[own] = thread[pidx[own]] == thread[own]
        selfs = cpu.copy()
        np.subtract.at(selfs, pidx[same], cpu[same])
        layer = np.array(self.layer_of_name)[name]
        parent_layer = np.where(own, layer[np.maximum(pidx, 0)], "")
        for i, nm in enumerate(self.names):
            mask = name == i
            if mask.any():
                out["calls"][nm] = int(mask.sum())
                out["self_s"][nm] = float(selfs[mask].sum())
        for lay in LAYERS:
            mask = layer == lay
            out["layer_self_s"][lay] = float(selfs[mask].sum())
            out["entries"][lay] = int((mask & (parent_layer != lay)).sum())
        return out

    def write(self, path: str):
        """Spans and escalation contexts as gzipped JSON columns."""
        t0 = min(self.wall0, default=0.0)
        doc = {
            "names": self.names,
            "spans": {
                "id": list(self.sid), "parent": list(self.parent),
                "name": list(self.name),
                "start_s": [round(v - t0, 7) for v in self.wall0],
                "end_s": [round(v - t0, 7) for v in self.wall1],
                "cpu_s": [round(b - a, 7)
                          for a, b in zip(self.cpu0, self.cpu1)],
            },
            "escalations": [[lay, round(w - t0, 7), round(c, 7)]
                            for lay, w, c in self.escalations],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))
