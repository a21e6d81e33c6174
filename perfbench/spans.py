"""Span tracer for the benchmark.

Wraps public functions of the program from outside: every module-level name
bound to a traced function (in any module of the package) and every traced
class attribute is rebound to one wrapper, so a call is counted whichever
import site it goes through.  Spans are aggregated in memory per name:
call count, self time (span time minus the time of child spans), optional
per-call durations, and counters filled by per-span hooks.  Hook time is
charged to nobody: it is excluded from the span and from its parent.
"""

from __future__ import annotations

import math
import sys
import time

# percentiles a tail may be taken at, ascending
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least 10 of n samples beyond it."""
    best = None
    for p in LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            best = p
    return best


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Span:
    def __init__(self, name: str, keep_durations: bool):
        self.name = name
        self.calls = 0
        self.self_s = 0.0
        self.durations = [] if keep_durations else None
        self.counters: dict[str, float] = {}

    def bump(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.sites: dict[str, list[str]] = {}   # span name -> rebound sites
        self.missing: list[str] = []            # targets the program lacks
        self._stack = [0.0]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, span: Span, fn, hook):
        stack = self._stack
        clock = time.perf_counter
        durations = span.durations

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                dur = clock() - t0
                span.calls += 1
                span.self_s += dur - stack.pop()
                if durations is not None:
                    durations.append(dur)
                if done and hook is not None:
                    hook(span, args, result)
                stack[-1] += clock() - t0

        traced.__name__ = getattr(fn, "__name__", span.name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def install(self, package: str, targets) -> None:
        """targets: (module, qualname, keep_durations, hook) tuples, where
        qualname is `func` or `Class.method` inside `package.module`."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package
                                         or name.startswith(package + "."))]
        for module, qualname, keep, hook in targets:
            name = f"{module}.{qualname}"
            span = self.spans.setdefault(name, Span(name, keep))
            owner = sys.modules.get(f"{package}.{module}")
            head, _, attr = qualname.rpartition(".")
            if head:
                cls = getattr(owner, head, None)
                orig = None if cls is None else cls.__dict__.get(attr)
                if orig is None:
                    self.missing.append(name)
                    continue
                self._patch(cls, attr, orig, self._wrap(span, orig, hook))
                self.sites[name] = [f"{module}.{qualname}"]
                continue
            orig = getattr(owner, attr, None)
            if orig is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(span, orig, hook)
            sites = []
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, key, orig, wrapper)
                        sites.append(f"{m.__name__.rpartition('.')[2]}.{key}")
            self.sites[name] = sorted(sites)

    def _patch(self, obj, attr, orig, wrapper) -> None:
        setattr(obj, attr, wrapper)
        self._patches.append((obj, attr, orig))

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, orig = self._patches.pop()
            setattr(obj, attr, orig)

    def calls(self, name: str) -> int:
        span = self.spans.get(name)
        return span.calls if span else 0
