"""In-memory span recorder that wraps a package's functions from outside.

A target is a function name (``build_hst``) or a ``Class.method`` name
(``Estimator.estimate``).  ``install`` finds every object of that name the
package defines, in whichever module it now lives, and rebinds each place
the package holds it (``mcsketch.hst.build_hst`` and ``mcsketch.cli.build_hst``
are one function bound twice).  A target that no longer exists records
nothing.  Spans are named after the function, so they survive code moving
between modules; a method of an object with a ``mode`` attribute gets the
mode appended, as in ``Estimator.estimate[landmark]``.

Spans are kept in memory as ``{name, start, end, parent, run}`` where
``parent`` is the index of the enclosing span and ``run`` the index of the
outermost one, so all spans of one call into the package share a ``run``.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self, package: str, targets: list[str], probes=None) -> None:
        self.package = package
        self.targets = targets
        # qualname -> callback(args, result), called after each call, no span
        self.probes = probes or {}
        self.enabled = False
        self.spans: list[list] = []  # [name, start, end, parent, run]
        self.last: dict[str, object] = {}  # latest return value per span name
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- installation ------------------------------------------------------

    def _modules(self) -> list:
        pkg = self.package
        return [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == pkg or name.startswith(pkg + "."))
        ]

    def _owned(self, obj) -> bool:
        mod = getattr(obj, "__module__", None) or ""
        return mod == self.package or mod.startswith(self.package + ".")

    def install(self) -> None:
        modules = self._modules()
        for qualname in [*self.targets, *self.probes]:
            owner, _, attr = qualname.rpartition(".")
            found = False
            if owner:
                classes = {
                    id(obj): obj
                    for m in modules
                    for obj in vars(m).values()
                    if isinstance(obj, type) and obj.__name__ == owner and self._owned(obj)
                }
                for cls in classes.values():
                    orig = cls.__dict__.get(attr)
                    if callable(orig):
                        self._patch(cls, attr, orig, self._wrap(orig, qualname))
                        found = True
            else:
                funcs = {
                    id(obj): obj
                    for m in modules
                    for obj in vars(m).values()
                    if callable(obj)
                    and getattr(obj, "__qualname__", None) == attr
                    and self._owned(obj)
                }
                for orig in funcs.values():
                    wrapper = self._wrap(orig, qualname)
                    for m in modules:
                        for name, val in list(vars(m).items()):
                            if val is orig:
                                self._patch(m, name, orig, wrapper)
                                found = True
            if not found:
                self.missing.append(qualname)

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _patch(self, owner, attr: str, orig, wrapper) -> None:
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, qualname: str):
        probe = self.probes.get(qualname)
        if probe is not None:

            @functools.wraps(fn)
            def probed(*args, **kwargs):
                result = fn(*args, **kwargs)
                if self.enabled:
                    probe(args, result)
                return result

            return probed

        is_method = "." in qualname

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            run = sid if parent is None else self.spans[parent][4]
            span = [qualname, time.perf_counter() - self._t0, None, parent, run]
            self.spans.append(span)
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter() - self._t0
                self._stack.pop()
                mode = getattr(args[0], "mode", None) if is_method and args else None
                if isinstance(mode, str):
                    span[0] = f"{qualname}[{mode}]"
            self.last[span[0]] = result
            return result

        return traced

    # -- reports -------------------------------------------------------------

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds.

        A span's self time is its duration minus the durations of its
        direct children.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, run in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for i, (name, start, end, parent, run) in enumerate(self.spans):
            row = table[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return dict(table)

    def span_records(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "run": run}
            for name, start, end, parent, run in self.spans
        ]

    def tree(self) -> list[dict]:
        """Span tree folded by call path: one row per distinct path."""
        paths: dict[tuple, dict] = {}
        path_of: list[tuple] = []
        for name, start, end, parent, run in self.spans:
            path = (path_of[parent] if parent is not None else ()) + (name,)
            path_of.append(path)
            row = paths.setdefault(path, {"path": "/".join(path), "calls": 0, "total_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
        return list(paths.values())
