"""In-memory span recording around calls into ccegeom's layer modules.

The tracer wraps, from outside the package, every public function a layer
module exports in ``__all__`` and every public method of the classes it
exports. Each call records one span: name, start, end and the span that
was open when it began. Spans stay in columnar lists until the caller
writes them out, so recording costs two clock reads and four appends.

A layer is a module of the package; a span's layer is the part of its
name before the first dot. ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("models", "normal_form", "quadrature", "volume", "eigenfunction",
          "integrals", "tensor", "topology")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = []
        self.start = []
        self.end = []
        self.parent = []
        self._open = [-1]
        self._patched = []

    def _name(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._name(name))
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn, label=None):
        """fn with one span per call; label(*args) may suffix the name."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name if label is None else f"{name}[{label(*args, **kwargs)}]")
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(idx)
        return traced

    # -- installing around the package -----------------------------------

    def _replace(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, labels=None, hooks=None):
        """Wrap the layer modules' public callables everywhere they are bound.

        labels maps a span name to a function of the call's arguments that
        names the variant (for example the domain kind of an integral);
        hooks maps a span name to a function that receives the original
        callable and returns the callable to trace in its place.
        """
        labels = labels or {}
        hooks = hooks or {}
        package = [m for n, m in sorted(sys.modules.items())
                   if (n == "ccegeom" or n.startswith("ccegeom.")) and m is not None]
        for layer in LAYERS:
            module = sys.modules[f"ccegeom.{layer}"]
            for export in module.__all__:
                obj = getattr(module, export)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    name = f"{layer}.{export}"
                    target = hooks[name](obj) if name in hooks else obj
                    new = self.wrap(name, target, labels.get(name))
                    for mod in package:
                        for attr, val in list(vars(mod).items()):
                            if val is obj:
                                self._replace(mod, attr, new)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for attr, val in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(val):
                            self._replace(obj, attr,
                                          self.wrap(f"{layer}.{export}.{attr}", val))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- summaries ---------------------------------------------------------

    def summary(self) -> dict:
        """Per-name call counts, inclusive and self seconds; per-layer self."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        by_name = {}
        layers = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            rec = by_name.setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += dur[i]
            rec[2] += dur[i] - child[i]
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + dur[i] - child[i]
        return {
            "spans": {k: {"calls": c, "inclusive_s": t, "self_s": s}
                      for k, (c, t, s) in sorted(by_name.items())},
            "layer_self_s": layers,
            "roots_s": sum(dur[i] for i in range(n) if self.parent[i] < 0),
        }

    def columns(self) -> dict:
        return {"names": self.names, "name_id": self.name_id,
                "start": self.start, "end": self.end, "parent": self.parent}
