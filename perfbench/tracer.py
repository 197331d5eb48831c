"""Benchmark-side spans and counters for the traced run.

The traced run wraps each call into a layer's public function in a span
named after the layer (``topology``, ``cluster``, ``cds``, ...).  Nothing
inside ``src/`` is instrumented: a span's busy time is the wall time of
the wrapped call.  Spans are flat — a span opened inside another one is a
benchmark bug, because the per-layer busy times of a timed pass must add
up to no more than the traced wall time of the pass.  Spans recorded
outside a pass (input preparation, set-up) are kept apart in
``setup_busy``.  With tracing off, :meth:`Tracer.span` returns
a shared no-op context and the counters are ignored, so the untraced run
pays one attribute test per layer call.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Iterator

_NULL = nullcontext()


class Tracer:
    """Per-layer busy time and work counters, kept in memory.

    Attributes:
        enabled: record spans and counters (False = no-op).
        busy: layer name -> summed seconds of spans inside timed passes.
        setup_busy: layer name -> summed seconds of spans outside them.
        counts: counter name -> summed value.
        peaks: counter name -> maximum observed value.
        in_pass: True while a timed pass runs.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.busy: dict[str, float] = {}
        self.setup_busy: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.peaks: dict[str, float] = {}
        self.in_pass = False
        self._open: str | None = None

    def span(self, layer: str):
        """Context manager timing one call into ``layer``."""
        return self._span(layer) if self.enabled else _NULL

    @contextmanager
    def _span(self, layer: str) -> Iterator[None]:
        if self._open is not None:
            raise RuntimeError(f"span {layer!r} nested inside {self._open!r}")
        self._open = layer
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._open = None
            busy = self.busy if self.in_pass else self.setup_busy
            busy[layer] = busy.get(layer, 0.0) + dt

    def add(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name``."""
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        """Keep the maximum of ``value`` under ``name``."""
        if self.enabled:
            self.peaks[name] = max(self.peaks.get(name, value), value)
