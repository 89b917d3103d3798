"""Span tracer for the benchmark's traced runs.

The tracer times the calls into each dlab layer from outside the package: it
wraps every public function of every ``dlab.*`` module, plus the ``numpy.fft``
(and, once imported, ``scipy.fft``) transform and shift entry points, and
rebinds every name those functions are bound to in ``dlab.*`` namespaces
(``montecarlo`` imports ``y_norm`` by name, ``dlab`` re-exports grid helpers).
Nothing in ``src/`` changes.

Each span records its name, start, end and parent; spans stay in memory until
the run ends.  A span's self time is its duration minus the time its child
spans cover.  Counts (calls, transformed points, Field values built) repeat
exactly between runs of the same work; times do not.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

# modules under src/dlab whose public functions form the layers; `errors`
# does no work and is not a layer
LAYERS = (
    "grid",
    "projections",
    "propagate",
    "randomize",
    "norms",
    "montecarlo",
    "solver",
    "estimates",
    "cli",
)
FFT_TRANSFORMS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)
FFT_SHIFTS = ("fftshift", "ifftshift")


class Tracer:
    """Records spans and counts while installed; restores every binding on
    :meth:`uninstall`."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self._stack: list = []
        self.fft_points = 0
        self.fields_built = 0
        self.field_bytes = 0
        self._restore: list = []  # (namespace, attribute, original)

    # ------------------------------------------------------------ recording

    def _wrap(self, name: str, fn, count_points: bool = False, wrap_result: str | None = None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            if count_points and args:
                self.fft_points += int(getattr(args[0], "size", 0))
            self._stack.append(i)
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[i] = perf_counter()
                self._stack.pop()
            if wrap_result is not None:
                result = self._wrap(wrap_result, result)
            return result

        return traced

    def _set(self, namespace, attr: str, value) -> None:
        self._restore.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    # ------------------------------------------------------- installation

    def install(self) -> None:
        """Wrap every layer entry point and rebind it wherever dlab binds it."""
        import numpy.fft

        from dlab import grid as grid_mod

        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = sys.modules[f"dlab.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                # the statistic closure built by make_norm_statistic is a
                # montecarlo span of its own
                result_name = "montecarlo.statistic" if attr == "make_norm_statistic" else None
                wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj, wrap_result=result_name)
        fft_modules = [numpy.fft]
        if "scipy.fft" in sys.modules:
            fft_modules.append(sys.modules["scipy.fft"])
        for fmod in fft_modules:
            for attr in FFT_TRANSFORMS + FFT_SHIFTS:
                obj = getattr(fmod, attr, None)
                if obj is None:
                    continue
                wrapper = self._wrap(
                    f"fft.{attr}", obj, count_points=attr in FFT_TRANSFORMS
                )
                wrappers[id(obj)] = wrapper
                self._set(fmod, attr, wrapper)
        for modname, mod in list(sys.modules.items()):
            if modname != "dlab" and not modname.startswith("dlab."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._set(mod, attr, wrapper)

        field_cls = grid_mod.Field
        post_init = field_cls.__post_init__

        def counting_post_init(field):
            post_init(field)
            self.fields_built += 1
            self.field_bytes += field.values.nbytes

        self._set(field_cls, "__post_init__", counting_post_init)

    def uninstall(self) -> None:
        while self._restore:
            namespace, attr, original = self._restore.pop()
            setattr(namespace, attr, original)

    # ----------------------------------------------------------- analysis

    def self_times(self) -> list:
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        return own

    def summary(self) -> dict:
        """Self time and call count per span name and per layer."""
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for name, own in zip(self.names, self.self_times()):
            layer = name.split(".", 1)[0]
            for key in (name, layer):
                self_s[key] += own
                calls[key] += 1
        return {"self_s": dict(self_s), "calls": dict(calls)}

    def root_seconds(self) -> float:
        return sum(
            e - s for s, e, p in zip(self.starts, self.ends, self.parents) if p < 0
        )

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": self.starts[i],
                            "end": self.ends[i],
                            "parent": self.parents[i],
                        }
                    )
                    + "\n"
                )
