"""Span tracing installed from outside the program.

`install` wraps public functions of klwishart's modules and rebinds every
name that refers to them, including names callers bound with
``from ... import`` (``wishart.batch_bartlett``, ``cli.gaussian_kl``, the
package's re-exports).  Nothing in ``src/`` changes; `uninstall` restores
the original objects.

Each call becomes a span with a name, start, end and parent.  Spans are
aggregated as they close (calls, self time, item counts), so
memory stays bounded; the first `keep` spans are also kept verbatim so a
run can be inspected.  Self time is a span's duration minus the time its
direct children cover; calls are nested on one thread, so the children's
durations never overlap.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, keep: int = 20_000):
        self.keep = keep
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent (-1: root)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.items: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [name, start, child_s, span index]

    def open(self, name: str) -> list:
        index = len(self.spans) if len(self.spans) < self.keep else -1
        if index >= 0:
            parent = self._stack[-1][3] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent))
        frame = [name, 0.0, 0.0, index]
        self._stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def close(self, frame: list, error: str | None = None) -> None:
        end = perf_counter()
        name, start, child_s, index = frame
        self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.spans[index] = (name, start, end, self.spans[index][3])
        if error is not None:
            self.errors[f"{name}.{error}"] += 1


def _wrap(tracer: Tracer, name: str, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            tracer.close(frame, type(exc).__name__)
            raise
        tracer.close(frame)
        if count is not None:
            for key, value in count(args, kwargs, out).items():
                tracer.items[f"{name}.{key}"] += value
        return out

    return traced


def install(tracer: Tracer, targets) -> list:
    """Wrap each (module, attribute, span name, item counter) target and
    rebind every klwishart global that refers to the original function.
    Returns the undo list for `uninstall`."""
    modules = [m for n, m in list(sys.modules.items()) if n == "klwishart" or n.startswith("klwishart.")]
    undo = []
    for module, attr, name, count in targets:
        original = getattr(module, attr)
        wrapped = _wrap(tracer, name, original, count)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, original))
    return undo


def uninstall(undo: list) -> None:
    for mod, key, original in reversed(undo):
        setattr(mod, key, original)
