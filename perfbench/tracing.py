"""Spans around the public functions of the torusbrauer layers.

`Tracer.install` replaces every public function of the layer modules, the
constructor and public methods of their classes, and `cli.run`, with a
wrapper that records a span (name, start, end, parent).  Every module
attribute bound to a replaced function is rebound, so `from .intlat import
smith` in another module is traced too.  Spans stay in memory and are written
out once the pass is over.

Frozen dataclasses are values (groups, modules, lattices, matrices): only
their constructors are wrapped, because their element accessors (`mul`,
`act`, ...) run hundreds of thousands of times per pass and would bury the
layers under tracing overhead.  `IntMatrix` is not wrapped at all, for the
same reason.  The rest of `cli` is not wrapped either, so that
`cli.run.self_s` is the command layer's own parsing and rendering.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import weakref
from collections import defaultdict

LAYERS = ("intlat", "groups", "cohomology", "spectral", "brauer")
UNTRACED_CLASSES = {"IntMatrix"}


def _max_bits(smith_result) -> int:
    return max(
        (abs(x).bit_length() for m in (smith_result.U, smith_result.V,
                                       smith_result.u_inv, smith_result.v_inv)
         for row in m.entries for x in row),
        default=0,
    )


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, outermost]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._returned: dict[str, dict] = defaultdict(dict)

    # -- counters computed from arguments and results -----------------------
    def _count_cells(self, key, matrix):
        self.counters[key] += matrix.rows * matrix.cols

    def _count_hit(self, name, obj):
        seen = self._returned[name]
        ref = seen.get(id(obj))
        if ref is not None and ref() is obj:
            self.counters[f"{name}.hits"] += 1
        else:
            seen[id(obj)] = weakref.ref(obj)

    def _after(self, name):
        if name == "spectral.TwistedResolution.homotopy":
            def terms(args, out):
                self.counters[f"{name}.terms"] += len(out)
            return terms
        if name in ("spectral.CochainComplex.delta_matrix", "cohomology.bar_delta_matrix"):
            return lambda args, out: self._count_cells(f"{name}.cells", out)
        if name == "intlat.smith":
            def smith_counts(args, out):
                self._count_cells(f"{name}.cells", args[0])
                bits = _max_bits(out)
                if bits > self.counters[f"{name}.max_bits"]:
                    self.counters[f"{name}.max_bits"] = bits
            return smith_counts
        if name in ("spectral.e21_data", "spectral.twisted_resolution"):
            return lambda args, out: self._count_hit(name, out)
        return None

    # -- wrapping ------------------------------------------------------------
    def wrap(self, fn, name):
        spans, stack, depth = self.spans, self._stack, self._depth
        after = self._after(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, depth[name] == 0]
            stack.append(len(spans))
            spans.append(span)
            depth[name] += 1
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                depth[name] -= 1
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return traced

    def install(self, package) -> None:
        """Wrap the layers of `package` (the imported torusbrauer)."""
        modules = {m: getattr(package, m) for m in LAYERS + ("cli",)}
        replaced = {}
        for short in LAYERS:
            mod = modules[short]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self.wrap(obj, f"{short}.{attr}"))
                elif inspect.isclass(obj) and attr not in UNTRACED_CLASSES:
                    self._wrap_class(obj, f"{short}.{attr}")
        replaced[id(modules["cli"].run)] = (modules["cli"].run, self.wrap(modules["cli"].run, "cli.run"))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _wrap_class(self, cls, prefix):
        params = getattr(cls, "__dataclass_params__", None)
        value = params is not None and params.frozen
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{prefix}.{'init' if attr == '__init__' else attr}"
            if isinstance(member, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(member.__func__, name)))
            elif inspect.isfunction(member) and (attr == "__init__" or not value):
                setattr(cls, attr, self.wrap(member, name))

    # -- results ---------------------------------------------------------------
    def summary(self) -> dict[str, float]:
        """calls, s (outermost activations only) and self_s per name, plus counters."""
        out: dict[str, float] = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, outermost in self.spans:
            took = end - start
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += took
            if outermost:
                out[f"{name}.s"] += took
            if parent >= 0:
                child[parent] += took
        for (name, *_), covered in zip(self.spans, child):
            out[f"{name}.self_s"] -= covered
        out.update(self.counters)
        for name in ("spectral.e21_data", "spectral.twisted_resolution"):
            calls = out.get(f"{name}.calls", 0)
            out[f"{name}.hit_ratio"] = out.get(f"{name}.hits", 0) / calls if calls else 0.0
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
