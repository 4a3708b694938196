"""Span tracing of taulab's public functions, installed from outside ``src/``.

``Tracer.prepare`` wraps every public module-level function of the
traced modules (plus the methods named in ``METHODS``) and finds every
taulab module namespace that binds the same object, so that
``from .hecke import coeff_prime_power`` in ``scans`` is traced too.
``Tracer.install`` puts the wrappers in place; ``Tracer.uninstall``
puts every original back and reports any binding that did not return
to its original object.

Each call records a span (id, parent id, op id, name, start, end).  Span
ids are reserved when a call starts and a span is kept only while fewer
than ``max_spans`` ids have been reserved, so a kept span's parent is
always kept too.  Per-function totals (calls, inclusive seconds, self
seconds) are exact whatever the cap.  Self time is a span's duration
minus the durations of its child spans; inclusive time is counted only
for the outermost active call of a function, so recursion is not
counted twice.

Calls made inside worker processes (``--workers 2``) are not seen: the
forked workers inherit the wrappers but their spans stay in the child.
"""

from __future__ import annotations

import functools
import json
import time
from types import ModuleType

# Methods traced besides the module-level functions.
METHODS = {"hecke": ("EigenformSpec.ap",)}


class Tracer:
    def __init__(self, modules: dict[str, ModuleType], max_spans: int):
        self.modules = modules
        self.max_spans = max_spans
        self.spans: list[tuple] = []
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.observers: dict[str, callable] = {}
        self.op_id = 0
        self._next_id = 0
        self._stack: list[list] = []  # [span id, child seconds]
        self._depth: dict[str, int] = {}
        self._patched: list[tuple] = []  # (owner, attribute, original, wrapper)

    def _targets(self) -> dict[str, object]:
        """Qualified name -> original callable for everything traced."""
        out = {}
        for short, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) == mod.__name__:
                    out[f"{short}.{attr}"] = obj
            for dotted in METHODS.get(short, ()):
                cls_name, meth = dotted.split(".")
                out[f"{short}.{dotted}"] = vars(getattr(mod, cls_name))[meth]
        return out

    def prepare(self) -> None:
        """Build one wrapper per traced callable and find every binding of it."""
        wrappers = {}
        for name, fn in self._targets().items():
            self.stats[name] = [0, 0.0, 0.0]
            self._depth[name] = 0
            wrappers[id(fn)] = self._wrap(name, fn)
        for short, mod in self.modules.items():
            owners = [mod] + [getattr(mod, d.split(".")[0]) for d in METHODS.get(short, ())]
            for owner in owners:
                for attr, obj in vars(owner).items():
                    if id(obj) in wrappers:
                        self._patched.append((owner, attr, obj, wrappers[id(obj)]))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patched:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> list[str]:
        """Restore every binding; return the ones left not restored."""
        for owner, attr, original, _ in self._patched:
            setattr(owner, attr, original)
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original, _ in self._patched
            if vars(owner)[attr] is not original
        ]

    @property
    def spans_total(self) -> int:
        return self._next_id

    def reset_stats(self) -> None:
        for entry in self.stats.values():
            entry[:] = [0, 0.0, 0.0]

    def snapshot(self) -> dict[str, tuple]:
        return {name: tuple(entry) for name, entry in self.stats.items()}

    def begin_op(self, name: str) -> None:
        """Open the root span of one benchmark operation."""
        self.op_id += 1
        self._op_name = name
        self._op_start = time.perf_counter()
        self._stack.append([self._next_id, 0.0])
        self._next_id += 1

    def end_op(self) -> None:
        sid, _ = self._stack.pop()
        if sid < self.max_spans:
            self.spans.append((sid, None, self.op_id, f"op:{self._op_name}",
                               self._op_start, time.perf_counter()))

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        stack = self._stack
        depth = self._depth
        spans = self.spans
        cap = self.max_spans
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            depth[name] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                depth[name] -= 1
                dur = end - start
                stats[0] += 1
                if depth[name] == 0:
                    stats[1] += dur
                stats[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if sid < cap:
                    spans.append((sid, parent, tracer.op_id, name, start, end))
            observer = tracer.observers.get(name)
            if observer is not None:
                observer(result)
            return result

        return traced

    def write(self, path, header: dict) -> None:
        """Write the header and every kept span, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "spans_kept": len(self.spans),
                                 "spans_total": self.spans_total,
                                 "fields": ["id", "parent", "op", "name", "start", "end"]}) + "\n")
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")
