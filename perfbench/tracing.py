"""In-memory span tracer that wraps dispersia's public functions from outside.

A span records its name, start, end and parent span. Spans nest on one
thread, so the children of a span never overlap, and a span's self time is
its duration minus the durations of its direct children: summed over all
spans, self times add up to the duration of the root spans with nothing
counted twice.

Nothing under ``src/`` is edited. ``install`` rebinds each traced function in
every dispersia module that holds it by name, replaces
``Field.__post_init__`` (one span per ``Field`` validation) and wraps the
``scipy.fft`` transforms that dispersia looks up on the module at call time.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import Counter

# (module, public function) pairs; the span is named "<module>.<function>".
TARGETS = (
    ("experiments", "run"),
    ("experiments", "parse_config"),
    ("experiments", "original_coordinates_reference"),
    ("propagators", "product_propagate"),
    ("propagators", "boundary_mass_fraction"),
    ("propagators", "two_particle_propagate"),
    ("hyperbolic", "h3_axis_propagate"),
    ("hyperbolic", "h3_product_propagate"),
    ("fields", "lp_norm"),
    ("decay", "norm_series"),
    ("decay", "strichartz_norm"),
    ("decay", "fit_decay_exponent"),
    ("nls", "picard_iterate"),
    ("nls", "splitstep_nls"),
    ("nls", "scattering_diagnostic"),
    ("nls", "apply_nonlinearity"),
)

TRANSFORM_SPAN = "propagators.transform"
TRANSFORMS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "dst", "idst")


def _transformed_axes(func: str, ndim: int, bound: inspect.BoundArguments) -> tuple[int, ...]:
    args = bound.arguments
    if func in ("fft2", "ifft2", "fftn", "ifftn"):
        axes = args.get("axes")
        if axes is None:
            axes = (-2, -1) if func.endswith("2") else range(ndim)
    else:
        axes = (args.get("axis", -1),)
    return tuple(sorted(a % ndim for a in axes))


class Tracer:
    """Spans kept in memory; ``summary`` aggregates them, ``write`` dumps them."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, self seconds]
        self.transforms = {}  # (func, shape, axes) -> [n, seconds, bytes, flops]
        self.counters = Counter()
        self.missing = []  # targets absent from the package
        self._stack = []  # indices of open spans
        self._child_s = []  # summed child durations of each open span

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0.0])
        self._stack.append(idx)
        self._child_s.append(0.0)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def end(self, idx: int) -> float:
        t = time.perf_counter()
        span = self.spans[idx]
        self._stack.pop()
        dur = t - span[1]
        span[2] = t
        span[4] = dur - self._child_s.pop()
        if self._child_s:
            self._child_s[-1] += dur
        return dur

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def wrap_transform(self, func: str, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(x, *args, **kwargs):
            idx = self.begin(TRANSFORM_SPAN)
            try:
                out = fn(x, *args, **kwargs)
            finally:
                dur = self.end(idx)
            shape = tuple(getattr(x, "shape", ()))
            axes = _transformed_axes(func, len(shape), sig.bind(x, *args, **kwargs)) if shape else ()
            size = math.prod(shape)
            length = math.prod(shape[a] for a in axes)
            # computed, not measured: one read of the input, one write of the
            # output, and the nominal 5 N log2(n) flops of a complex FFT
            nbytes = getattr(x, "nbytes", 0) + getattr(out, "nbytes", 0)
            flops = 5.0 * size * math.log2(length) if length > 1 else 0.0
            row = self.transforms.setdefault((func, shape, axes), [0, 0.0, 0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += nbytes
            row[3] += flops
            return out

        return traced

    def summary(self) -> dict:
        """Per-name n / inclusive s / self_s, the transform table, counters."""
        names = {}
        for name, start, end, parent, self_s in self.spans:
            row = names.setdefault(name, {"n": 0, "s": 0.0, "self_s": 0.0})
            row["n"] += 1
            row["self_s"] += self_s
            # inclusive time counts only the outermost span of a name
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                row["s"] += end - start
        return {
            "spans": names,
            "root_s": sum(s[2] - s[1] for s in self.spans if s[3] < 0),
            "self_sum_s": sum(s[4] for s in self.spans),
            "transforms": [
                {"func": f, "shape": list(shape), "axes": list(axes),
                 "n": r[0], "s": r[1], "bytes_computed": r[2], "flops_computed": r[3]}
                for (f, shape, axes), r in sorted(self.transforms.items())
            ],
            "counters": dict(self.counters),
            "missing_targets": self.missing,
        }

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "self_s"], "spans": self.spans}, fh)


def _counter_hook(tracer: Tracer, fn_name: str, fn):
    """Exact work counts read from a traced call's arguments or result."""
    if fn_name == "picard_iterate":
        def on_result(args, kwargs, result):
            tracer.counters["nls.picard.iterations"] += len(result.history) - 1

        return on_result
    if fn_name == "splitstep_nls":
        sig = inspect.signature(fn)

        def on_result(args, kwargs, result):
            bound = sig.bind(*args, **kwargs).arguments
            tracer.counters["nls.splitstep_nls.steps"] += round(bound["T"] / bound["dt"])

        return on_result
    return None


def install(tracer: Tracer):
    """Route dispersia's traced functions and scipy.fft transforms through
    ``tracer`` for the rest of the process."""
    import scipy.fft

    import dispersia.experiments  # noqa: F401  (imports every traced module)
    from dispersia.fields import Field

    modules = [m for n, m in sys.modules.items() if n == "dispersia" or n.startswith("dispersia.")]
    for mod_name, fn_name in TARGETS:
        home = sys.modules.get(f"dispersia.{mod_name}")
        orig = getattr(home, fn_name, None)
        if orig is None:
            tracer.missing.append(f"{mod_name}.{fn_name}")
            continue
        traced = tracer.wrap(f"{mod_name}.{fn_name}", orig, _counter_hook(tracer, fn_name, orig))
        for mod in modules:
            if getattr(mod, fn_name, None) is orig:
                setattr(mod, fn_name, traced)
    post_init = getattr(Field, "__post_init__", None)
    if post_init is None:
        tracer.missing.append("fields.Field.__post_init__")
    else:
        Field.__post_init__ = tracer.wrap("fields.Field", post_init)
    for func in TRANSFORMS:
        setattr(scipy.fft, func, tracer.wrap_transform(func, getattr(scipy.fft, func)))
