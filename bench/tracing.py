"""In-memory spans and eigensolve counters for the traced benchmark run.

Spans are recorded from the benchmark's own files, around calls into the
package's public functions; nothing inside ``src/`` is instrumented. The
only wrapping is of ``numpy.linalg.eigvalsh`` and ``numpy.linalg.svd``,
which the package looks up through the ``numpy.linalg`` module on every
call, so replacing the module attributes is enough to count its
eigensolves and singular value decompositions.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Spans plus the counters that explain them, kept until the run ends.

    ``counting`` is switched on only around the CLI operation itself, so the
    ``linalg`` counts describe the program's work and not the replay's.
    """

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    op: int = 0
    counting: bool = False
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, self.op, parent, time.perf_counter())
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(s.duration for s in self.spans if s.name == name)

    def children_total(self, parent_name: str) -> float:
        """Summed duration of the direct children of every span with this name."""
        parents = {i for i, s in enumerate(self.spans) if s.name == parent_name}
        return sum(s.duration for s in self.spans if s.parent in parents)

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "op": s.op, "parent": s.parent, "start": s.start, "end": s.end}
            for s in self.spans
        ]


@contextmanager
def count_decompositions(tracer: Tracer):
    """Count eigvalsh and svd calls, their n^3 sizes and busy time, while counting."""
    eigvalsh, svd = np.linalg.eigvalsh, np.linalg.svd

    def counted(kind, fn, n3):
        def wrapper(a, *args, **kwargs):
            if not tracer.counting:
                return fn(a, *args, **kwargs)
            shape = np.shape(a)
            start = time.perf_counter()
            try:
                return fn(a, *args, **kwargs)
            finally:
                tracer.add("linalg.decomp_s", time.perf_counter() - start)
                tracer.add(f"linalg.{kind}_calls")
                tracer.add(f"linalg.{kind}_n3", n3(shape))
        return wrapper

    np.linalg.eigvalsh = counted("eig", eigvalsh, lambda s: s[-1] ** 3)
    np.linalg.svd = counted("svd", svd, lambda s: s[-2] * s[-1] * min(s[-2], s[-1]))
    try:
        yield
    finally:
        np.linalg.eigvalsh, np.linalg.svd = eigvalsh, svd
