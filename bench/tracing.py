"""In-memory spans recorded around the library's public functions.

The tracer replaces a function at the module attribute where the library
looks it up (for example ``certkmeans.certificate.apply_A``, which
``ImplicitOperator`` calls), records one span per call, and restores the
original on exit.  The tracer wraps nothing while end-to-end timings are taken.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Optional, Sequence


@dataclass(frozen=True)
class Site:
    """One lookup site: ``module.attr`` is wrapped and its calls are recorded
    under ``layer``.  ``count`` maps (args, result) to a per-call count."""

    layer: str
    module: Any
    attr: str
    count: Optional[Callable[[tuple, Any], float]] = None


@dataclass(eq=False)
class Span:
    layer: str
    op: int
    parent: Optional["Span"]
    start: float = 0.0
    end: float = 0.0
    count: Optional[float] = None
    children: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def child_seconds(self, layers: Optional[Sequence[str]] = None) -> float:
        return sum(c.seconds for c in self.children if layers is None or c.layer in layers)


class Tracer:
    """Collects spans for the ops run inside :meth:`installed`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op = -1

    def _wrap(self, site: Site, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(site.layer, self._op, parent)
            self._stack.append(span)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
                self.spans.append(span)
                if parent is not None:
                    parent.children.append(span)
            if site.count is not None:
                span.count = site.count(args, out)
            return out

        return traced

    @contextmanager
    def installed(self, sites: Sequence[Site], op: int):
        """Wrap every site for the duration of one op, then restore them."""
        self._op = op
        originals = [(s.module, s.attr, getattr(s.module, s.attr)) for s in sites]
        try:
            for site, (_, _, fn) in zip(sites, originals):
                setattr(site.module, site.attr, self._wrap(site, fn))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def of(self, *layers: str) -> list[Span]:
        return [s for s in self.spans if s.layer in layers]
