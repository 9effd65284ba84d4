"""In-process spans around calls into the program's layers.

``traced(tracer, modules)`` replaces each function named in ``LAYERS`` that
a module binds by a wrapper that records a span, and puts the originals back
on exit. Only names that exist are wrapped, so the benchmark keeps working
when a layer's helper is renamed or deleted. The program's own code is not
changed.
"""

import contextlib
import functools
import time
import tracemalloc
from dataclasses import dataclass, field

# Function name -> layer. The layers are the package modules.
LAYERS = {
    "load_csv": "datasets.load",
    "load_idx": "datasets.load",
    "build_graph": "graph.build",
    "floyd_all_pairs": "geodesic.apsp",
    "dijkstra_all_pairs": "geodesic.apsp",
    "largest_component": "geodesic.component",
    "classical_mds": "geodesic.mds",
    "double_center": "geodesic.center",
    "symmetric_eigen_top": "linalg.eigen",
    "residual_variance": "geodesic.rv",
    "isomap_embed": "pipeline.embed",
    "compare_methods": "pipeline.compare",
    "write_embedding_csv": "pipeline.write",
    "write_report_csv": "pipeline.write",
    "write_scatter_svg": "pipeline.write",
}


@dataclass
class Span:
    name: str
    run: int
    parent: int | None  # index of the enclosing span in its run's Tracer.spans
    start: float
    end: float = 0.0
    base_bytes: int = 0   # traced memory when the span started
    peak_bytes: int = 0   # highest traced memory while it ran
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self):
        return self.end - self.start

    @property
    def peak_above_start(self):
        return self.peak_bytes - self.base_bytes

    def as_dict(self):
        return {"name": self.name, "run": self.run, "parent": self.parent, "start": self.start,
                "end": self.end, "peak_above_start_bytes": self.peak_above_start, "counts": self.counts}


class Tracer:
    """The spans of one run, in memory, in the order they started.

    ``observe(span, fn_name, args, kwargs, result)``, when given, runs after
    each wrapped call returns, outside the span's interval, to fill
    ``span.counts``.
    """

    def __init__(self, run=0, observe=None):
        self.spans = []
        self.observe = observe
        self.run = run
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        # tracemalloc keeps one peak; hand it to the enclosing span, then
        # restart it so this span's peak is its own.
        tracing = tracemalloc.is_tracing()
        parent = self._open[-1] if self._open else None
        current = 0
        if tracing:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                self.spans[parent].peak_bytes = max(self.spans[parent].peak_bytes, peak)
            tracemalloc.reset_peak()
        span = Span(name, self.run, parent, 0.0, base_bytes=current, peak_bytes=current)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            if tracing:
                span.peak_bytes = max(span.peak_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
                if parent is not None:
                    self.spans[parent].peak_bytes = max(self.spans[parent].peak_bytes, span.peak_bytes)

    def wrap(self, layer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(layer) as span:
                result = fn(*args, **kwargs)
            if self.observe is not None:
                self.observe(span, fn.__name__, args, kwargs, result)
            return result

        return wrapper


@contextlib.contextmanager
def traced(tracer, modules):
    """Wrap every ``LAYERS`` function bound in ``modules``; restore on exit."""
    originals = []
    try:
        for module in modules:
            for attr, layer in LAYERS.items():
                fn = getattr(module, attr, None)
                if callable(fn):
                    originals.append((module, attr, fn))
                    setattr(module, attr, tracer.wrap(layer, fn))
        yield tracer
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)


def self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own
