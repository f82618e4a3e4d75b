"""In-memory span tracer that times a package's public functions from outside.

:meth:`Tracer.install` replaces every function named in a module's
``__all__`` by a timing wrapper, in every module of the package that binds
that function, so calls the package makes to itself are timed too.  Each
call records one span ``[name, start, end, parent]`` (``parent`` is the index
of the enclosing span, -1 at the top) plus optional counters taken from the
call's arguments, result or exception.  Nothing is written until the caller
asks for it.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

NAME, START, END, PARENT = range(4)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = {}          # span index -> {counter: value}
        self.wrapped = set()        # span names that were installed
        self._stack = []
        self._restore = []

    def wrap(self, name, fn, counter=None):
        """Return ``fn`` timed as span ``name``.

        ``counter(bound_arguments, result, exception)`` may return a dict of
        counts to attach to the span.
        """
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        signature = inspect.signature(fn) if counter else None

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                span[END] = clock()
                stack.pop()
                if counter is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counts = counter(bound.arguments, result, exc)
                    if counts:
                        counters[index] = counts

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, package: str, layers, counters=None):
        """Wrap the ``__all__`` functions of ``package.<layer>`` modules.

        Span names are ``<layer>.<function>``.  Every module under
        ``package`` that binds the same function object, under any name,
        gets the wrapper.
        """
        counters = counters or {}
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if mod is not None and
                   (key == package or key.startswith(package + "."))]
        for layer in layers:
            module = sys.modules.get(f"{package}.{layer}")
            if module is None:
                continue
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if not inspect.isfunction(fn):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self.wrap(name, fn, counters.get(name))
                self.wrapped.add(name)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._restore.append((mod, key, fn))
                            setattr(mod, key, wrapper)

    def uninstall(self):
        for mod, key, fn in reversed(self._restore):
            setattr(mod, key, fn)
        self._restore.clear()

    def reset(self):
        self.spans.clear()
        self.counters.clear()

    def summary(self):
        """Per span name: calls, inclusive and self seconds, counter sums
        and maxima."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        stats = defaultdict(lambda: {"calls": 0, "inclusive_s": 0.0,
                                     "self_s": 0.0, "sum": defaultdict(float),
                                     "max": defaultdict(float)})
        for index, span in enumerate(self.spans):
            entry = stats[span[NAME]]
            duration = span[END] - span[START]
            entry["calls"] += 1
            entry["inclusive_s"] += duration
            entry["self_s"] += duration - child_time[index]
            for key, count in self.counters.get(index, {}).items():
                entry["sum"][key] += count
                entry["max"][key] = max(entry["max"][key], count)
        return stats

    def dump(self, path, extra=None):
        """Write every span (and ``extra``) as compact JSON."""
        names = sorted({span[NAME] for span in self.spans})
        ids = {name: i for i, name in enumerate(names)}
        payload = {"names": names,
                   "spans": [[ids[s[NAME]], s[START], s[END], s[PARENT]]
                             for s in self.spans],
                   "counters": {str(k): v for k, v in self.counters.items()},
                   **(extra or {})}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
