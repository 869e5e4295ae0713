"""Per-layer spans recorded from outside the library.

:func:`install` wraps the public functions that stand for each layer and
rebinds every module-level name in ``simplicent`` that refers to them, so the
CLI's own imports (``from .adjacency import combined_adjacency`` and the
like) call the wrappers.  Nothing in ``src/`` changes.  Spans nest: each
layer's time is its *self* time, the span's duration minus the traced spans
inside it, so the layer times of a round plus ``cli.self_s`` add up to the
round's traced wall time.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

# span name -> (module, function); the function's result feeds the counters
LAYERS = {
    "complexes.parse_s": ("simplicent.complexes", "parse_edge_list"),
    "complexes.lift_s": ("simplicent.complexes", "build_clique_complex"),
    "adjacency.combined_s": ("simplicent.adjacency", "combined_adjacency"),
    "paths.level_summary_s": ("simplicent.paths", "level_summary"),
    "centrality.closeness_s": ("simplicent.centrality", "closeness"),
    "centrality.harmonic_s": ("simplicent.centrality", "harmonic_closeness"),
    "centrality.betweenness_s": ("simplicent.centrality", "betweenness"),
    "centrality.katz_s": ("simplicent.centrality", "katz"),
    "centrality.eigenvector_s": ("simplicent.centrality", "eigenvector_centrality"),
    "centrality.subgraph_s": ("simplicent.centrality", "subgraph_centrality"),
    "stats.fit_all_s": ("simplicent.stats", "fit_all"),
    "stats.correlation_table_s": ("simplicent.stats", "correlation_table"),
    "essential.project_s": ("simplicent.essential", "project_to_nodes"),
    "essential.baseline_s": ("simplicent.essential", "random_baseline"),
}
PATH_FAMILY = {
    "paths.level_summary_s", "centrality.closeness_s", "centrality.harmonic_s", "centrality.betweenness_s",
}
COUNTS = (
    "complexes.simplices", "adjacency.calls", "adjacency.nnz", "centrality.bfs_sources", "centrality.eig_calls",
)
METRICS = tuple(LAYERS) + ("cli.self_s", "cli.wall_s") + COUNTS


class Tracer:
    """Self-time spans and counters for one round at a time.

    Recording happens only between :meth:`begin_round` and
    :meth:`end_round`, so the benchmark's own checks, which may call the same
    numpy routines, are never counted.
    """

    def __init__(self) -> None:
        self.active = False
        self._stack: list[list[float]] = []  # per open span: [child seconds]
        self.values: dict[str, float] = defaultdict(float)

    def begin_round(self) -> None:
        self.values = defaultdict(float)
        self.active = True

    def end_round(self) -> dict[str, float]:
        self.active = False
        return {name: (int if name in COUNTS else float)(self.values.get(name, 0)) for name in METRICS}

    def span(self, name: str, fn, *args, **kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        self._stack.append([0.0])
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            children = self._stack.pop()[0]
            self.values[name] += elapsed - children
            if self._stack:
                self._stack[-1][0] += elapsed
        self._count(name, result)
        return result

    def main(self, main, argv: list[str]) -> int:
        """Run one CLI invocation as the root span of its command."""
        start = time.perf_counter()
        rc = self.span("cli.self_s", main, argv)
        self.values["cli.wall_s"] += time.perf_counter() - start
        return rc

    def _count(self, name: str, result) -> None:
        if name == "complexes.lift_s":
            self.values["complexes.simplices"] += sum(result.counts())
        elif name == "adjacency.combined_s":
            self.values["adjacency.calls"] += 1
            self.values["adjacency.nnz"] += result.mat.nnz
        elif name in PATH_FAMILY:
            self.values["centrality.bfs_sources"] += result.n

    def counter(self, name: str, fn):
        def counted(*args, **kwargs):
            if self.active:
                self.values[name] += 1
            return fn(*args, **kwargs)

        return counted


def _wrap(tracer: Tracer, name: str, fn):
    def traced(*args, **kwargs):
        return tracer.span(name, fn, *args, **kwargs)

    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer) -> None:
    """Rebind every reference to a layer function inside ``simplicent``,
    and count numpy's symmetric eigensolver calls."""
    modules = [m for name, m in sys.modules.items() if name == "simplicent" or name.startswith("simplicent.")]
    for name, (module, attr) in LAYERS.items():
        original = getattr(sys.modules[module], attr)
        wrapper = _wrap(tracer, name, original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
    for attr in ("eigh", "eigvalsh"):
        setattr(np.linalg, attr, tracer.counter("centrality.eig_calls", getattr(np.linalg, attr)))
