"""In-memory span recorder for the traced benchmark run.

The library is not instrumented, so spans are recorded from outside: while a
``Tracer`` is installed, every public function that ``scldpc.pipeline``,
``scldpc.gast`` and ``scldpc.baselines`` reach through their module globals
is replaced by a wrapper that records (name, start, end, parent) around the
call.  Calls the library makes through other modules, or through names bound
locally inside a function, are not seen.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from typing import Callable

TRACED_MODULES = ("scldpc.pipeline", "scldpc.gast", "scldpc.baselines")


def _result_len(args, result) -> dict:
    return {"n": len(result)}


# Counters read off a traced call's arguments and return value, keyed by
# function name; they are stored on the call's span.
OBSERVERS: dict[str, Callable[[tuple, object], dict]] = {
    "solve_optimal_overlap": lambda a, r: {"kappa": a[0]},
    "couple": lambda a, r: {"cols": r.n_cols},
    "code_to_json": _result_len,
    "export_code_alist": lambda a, r: {"n": a[1].tell()},
    "lifted_6cycle_vn_sets": _result_len,
    "gast_scan": _result_len,
    "gast_witnesses": lambda a, r: {"n": int(r[0].shape[0])},
    "cpo_optimize": lambda a, r: {
        "evals": r.evals,
        "restarts": r.restarts,
        "improvements": len(r.trace),
    },
    "remove_gast": lambda a, r: {"ok": bool(r[0].success), "tried": r[0].tried},
    "cv_exhaustive_best": lambda a, r: {"zeta": list(r[0])},
}


class Tracer:
    """Records spans while installed; restores the original functions on exit."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, Callable]] = []

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span of its own (used for the root call)."""
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def wrap(self, fn: Callable) -> Callable:
        name = fn.__name__
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if observe is not None:
                span.update(observe(args, result))
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for modname in TRACED_MODULES:
            mod = importlib.import_module(modname)
            for attr, value in list(vars(mod).items()):
                # a generator function returns before doing its work, so a
                # span around the call would time nothing
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(value)
                    or not value.__module__.startswith("scldpc")
                    or inspect.isgeneratorfunction(value)
                ):
                    continue
                self._patched.append((mod, attr, value))
                setattr(mod, attr, self.wrap(value))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_time(spans: list[dict], span: dict) -> float:
    """Span duration minus the time its direct children cover.

    The library is single-threaded, so children never overlap each other.
    """
    inner = sum(duration(s) for s in spans if s["parent"] == span["id"])
    return duration(span) - inner


def per_span_overhead_s(calls: int = 20_000) -> float:
    """Extra seconds one recorded span adds to a call, measured on a no-op."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap(noop)
    extras = []
    for _ in range(5):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        extras.append(((t2 - t1) - (t1 - t0)) / calls)
    return max(statistics.median(extras), 0.0)
