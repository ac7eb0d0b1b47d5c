"""In-memory spans around calls into the layers of ``divisor_series``.

The program itself carries no tracing, so spans are recorded from outside:
:meth:`Tracer.install` replaces every public module-level function of each
layer with a wrapper, in every module namespace of the package that refers
to it.  Calls between layers go through those module globals, so they pass
through the wrappers too.  :meth:`Tracer.uninstall` puts the originals back.

A span is ``[name, start, end, parent, request, count]``: times are
``time.perf_counter`` seconds, ``parent`` is the index of the enclosing span
(-1 at top level), ``request`` is the id of the benchmark request that caused
it, and ``count`` is work reported at the boundary (cells checked,
coefficients built) where the function's result states it.
"""

from __future__ import annotations

import enum
import functools
import gzip
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

#: The traced modules of divisor_series; the CLI is covered by setup_s only.
LAYERS = (
    "verifier",
    "lemma_functions",
    "polynomials",
    "intervals",
    "special_eval",
    "power_series",
    "divisor_core",
)

#: Work counts read off a layer function's result at the span boundary.
_COUNTS = {
    "verifier.sandwich_verify": lambda cert: cert.cells_checked,
    "power_series.build_representation": lambda series: len(series.coeffs),
}


class NullTracer:
    """Stands in for a Tracer when tracing is off; records nothing."""

    def request(self, name, request_id):
        return nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request = None
        self._patches: list[tuple] = []

    @contextmanager
    def request(self, name: str, request_id):
        """A top-level span for one benchmark request; nested spans inherit its id."""
        outer = self._request
        self._request = request_id
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)
            self._request = outer

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._request, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _wrap(self, fn, name: str):
        count = _COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # an enum first argument (the representation) goes into the name
            tag = f"{name}[{args[0].name}]" if args and isinstance(args[0], enum.Enum) else name
            idx = self._open(tag)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    self.spans[idx][5] = count(result)
                return result
            finally:
                self._close(idx)

        return traced

    def install(self, modules: dict) -> None:
        """Wrap the public functions of LAYERS; `modules` maps short name to
        module for every module of the package, including its __init__."""
        wrappers = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        # generators and context managers return before their work is done
                        or inspect.isgeneratorfunction(obj) or hasattr(obj, "__wrapped__")):
                    continue
                wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    # -- summaries ------------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, *_ in self.spans if n == name]

    def total(self, name: str) -> tuple[float, int]:
        """(summed duration, summed count) over spans called `name`."""
        seconds, work = 0.0, 0
        for n, start, end, _, _, count in self.spans:
            if n == name:
                seconds += end - start
                work += count or 0
        return seconds, work

    def self_seconds(self, first: int = 0, last: int | None = None) -> dict[str, float]:
        """Per-layer self time of spans[first:last]: each span's duration minus
        the time its child spans cover, summed by layer (the name's prefix)."""
        spans = self.spans[first:last]
        child = defaultdict(float)
        for _, start, end, parent, _, _ in spans:
            if parent >= first:
                child[parent] += end - start
        out = {layer: 0.0 for layer in LAYERS}
        for offset, (name, start, end, _, _, _) in enumerate(spans):
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += end - start - child[first + offset]
        return out

    def write(self, path) -> None:
        """Write the spans as gzip-compressed JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, request, count in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request,
                                     "count": count}) + "\n")
