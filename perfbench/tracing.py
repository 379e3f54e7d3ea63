"""Spans around the calls into levyvol's public functions, recorded from
outside the package.

Each traced function is replaced, under every name a levyvol module binds it
to (``levyvol.experiments.tempered_posterior_mcmc``, ``levyvol.posterior.mle``,
``levyvol.likelihood.mle`` ...), by a wrapper that records one span: name,
start, end, parent span and op id. Spans stay in memory until the run ends.
A span's self time is its duration minus the durations of its direct
children, which nest inside it on one thread; time in functions that are not
traced counts towards the nearest traced caller. Counted functions get a
call counter and no span.
"""

from __future__ import annotations

import json
import sys
import types
from collections import defaultdict
from time import perf_counter


def _span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('levyvol.')}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list = []  # (name id, start, end, parent index, op id)
        self.stack: list[int] = []
        self.op = -1
        # per-name observers of (args, kwargs, result), called outside the span
        self.observers: dict[str, object] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self._patched: list = []

    def install(self, traced, counted=()) -> None:
        """Wrap the functions named ``module.function`` (module without the
        ``levyvol.`` prefix) in ``traced`` with spans, in ``counted`` with
        counters."""
        traced, counted = set(traced), set(counted)
        wrappers = {}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "levyvol" and not mod_name.startswith("levyvol."):
                continue
            for attr, obj in list(vars(module).items()):
                if not (isinstance(obj, types.FunctionType) and obj.__module__.startswith("levyvol")):
                    continue
                name = _span_name(obj)
                if name not in traced and name not in counted:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj) if name in traced else self._count(obj)
                setattr(module, attr, wrappers[obj])
                self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def _wrap(self, fn):
        name = _span_name(fn)
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, self.op)
            observer = self.observers.get(name)
            if observer is not None:
                observer(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _count(self, fn):
        name = _span_name(fn)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def self_times(self, weights=None) -> tuple[dict, dict]:
        """Total self seconds and call counts per span name; ``weights`` maps
        op id to a factor applied to the self seconds of that op's spans."""
        child = [0.0] * len(self.spans)
        for nid, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        for i, (nid, t0, t1, _, op) in enumerate(self.spans):
            name = self.names[nid]
            self_s[name] += ((t1 - t0) - child[i]) * (weights[op] if weights else 1.0)
            calls[name] += 1
        calls.update(self.counts)
        return dict(self_s), dict(calls)

    def top_level_seconds(self) -> float:
        return sum(t1 - t0 for _, t0, t1, parent, _ in self.spans if parent < 0)

    def dump(self, filename: str) -> None:
        cols = list(zip(*self.spans)) if self.spans else [[]] * 5
        with open(filename, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": cols[0],
                    "start": cols[1],
                    "end": cols[2],
                    "parent": cols[3],
                    "op": cols[4],
                },
                fh,
            )
