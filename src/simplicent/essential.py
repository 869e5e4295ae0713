"""Essential-node detection from simplex centralities.

Edge- and triangle-level scores are turned into node scores by averaging
over the simplices a node belongs to; nodes are ranked by descending score
and the detection curve reports, for each top-x% cut of the ranking, how
many annotated-essential nodes it contains.  A seeded random ranking gives
the reference baseline.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .centrality import CentralityVector
from .complexes import CliqueComplex, Graph

logger = logging.getLogger(__name__)

DEFAULT_GRID = (1.0, 3.0, 5.0, 10.0, 15.0, 20.0, 25.0)


@dataclass(eq=False)
class EssentialityAnnotation:
    """Per-label essentiality flags (e.g. lethal-knockout proteins)."""

    flags: dict[str, bool]

    @property
    def coverage(self) -> int:
        return len(self.flags)

    def flags_for(self, graph: Graph) -> np.ndarray:
        """Boolean flag per node index; unannotated nodes count as
        non-essential and unknown labels are ignored, both logged."""
        known = graph.label_index()
        out = np.zeros(graph.n, dtype=bool)
        matched = 0
        for label, value in self.flags.items():
            idx = known.get(label)
            if idx is None:
                continue
            matched += 1
            out[idx] = value
        unknown = len(self.flags) - matched
        unannotated = graph.n - matched
        if unknown or unannotated:
            logger.warning(
                "annotations: %d labels not in the graph ignored; %d graph nodes "
                "unannotated, treated as non-essential",
                unknown,
                unannotated,
            )
        return out


def read_annotations(path: str) -> EssentialityAnnotation:
    """Read a two-column ``label 0|1`` file ('#' comments allowed)."""
    flags: dict[str, bool] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2 or parts[1] not in ("0", "1"):
                raise ValueError(f"line {lineno}: expected 'label 0|1', got {line!r}")
            flags[parts[0]] = parts[1] == "1"
    return EssentialityAnnotation(flags)


def project_to_nodes(c: CliqueComplex, scores: CentralityVector) -> CentralityVector:
    """Node score = mean score of the level-k simplices containing the node;
    nodes in no k-simplex score 0 (no evidence at that level)."""
    k = scores.level
    if k < 1:
        raise ValueError("projection needs a level >= 1 centrality vector")
    n = c.graph.n
    members = c.levels[k].reshape(-1)  # simplex by simplex
    totals = np.bincount(members, weights=np.repeat(scores.scores, k + 1), minlength=n)
    counts = np.bincount(members, minlength=n)
    out = np.divide(totals, counts, out=np.zeros(n), where=counts > 0)
    return CentralityVector(
        0,
        scores.measure,
        out,
        params=dict(scores.params),
        normalized=scores.normalized,
        note=f"node mean of level-{k} scores; uncovered nodes scored 0",
    )


def _tie_groups(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable ascending order of ``x`` and, per sorted position, the index of
    its group of tied scores.  Sorted neighbours are tied when equal or when
    their gap is at most 1e-12 * max(|neighbours|) + 1e-13 * max|x|: scores
    equal in exact arithmetic must not be ordered by their rounding noise."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    finite = np.isfinite(xs)
    floor = 1e-13 * np.abs(xs[finite]).max(initial=0.0)
    with np.errstate(invalid="ignore"):  # inf - inf
        near = np.diff(xs) <= 1e-12 * np.maximum(np.abs(xs[1:]), np.abs(xs[:-1])) + floor
    tied = (xs[1:] == xs[:-1]) | (near & finite[1:] & finite[:-1])
    group = np.zeros(x.size, dtype=np.int64)
    group[1:] = np.cumsum(~tied)
    return order, group


def rank_nodes(scores: CentralityVector) -> np.ndarray:
    """Node IDs by descending score, tied scores (see :func:`_tie_groups`)
    by ascending ID."""
    values = np.asarray(scores.scores, dtype=np.float64)
    order, group = _tie_groups(values)
    return order[np.lexsort((order, -group))]


@dataclass(eq=False)
class DetectionCurve:
    """Essential-node counts among the top x% of a ranking, per grid point.

    ``percentages`` is the count as a share of the top-set size (the size
    uses a ceiling, so small cuts are never empty)."""

    measure: str
    grid: tuple[float, ...]
    top_sizes: np.ndarray
    counts: np.ndarray
    percentages: np.ndarray


def _top_size(x: float, n: int) -> int:
    return min(n, math.ceil(x * n / 100.0))


def detection_curve(
    ranking: np.ndarray,
    essential: np.ndarray,
    grid: tuple[float, ...] = DEFAULT_GRID,
    measure: str = "",
) -> DetectionCurve:
    """Count essential nodes in the top x% of the ranking for each x."""
    n = len(ranking)
    if n == 0:
        raise ValueError("empty ranking")
    if any(not 0 < x <= 100 for x in grid):
        raise ValueError("grid percentages must lie in (0, 100]")
    flags = np.asarray(essential, dtype=bool)
    if not flags.any():
        logger.warning("no essential nodes annotated; detection curve is all zeros")
    sizes = np.array([_top_size(x, n) for x in grid], dtype=np.int64)
    hits = np.cumsum(flags[ranking])
    counts = hits[sizes - 1].astype(np.float64)
    percentages = 100.0 * counts / sizes
    return DetectionCurve(measure, tuple(grid), sizes, counts, percentages)


def random_baseline(
    n: int,
    essential: np.ndarray,
    grid: tuple[float, ...] = DEFAULT_GRID,
    seed: int = 0,
    repetitions: int = 100,
) -> DetectionCurve:
    """Mean detection curve of uniformly random rankings (seeded, so the
    curve is bit-identical across runs)."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    rng = np.random.default_rng(seed)
    flags = np.asarray(essential, dtype=bool)
    sizes = np.array([_top_size(x, n) for x in grid], dtype=np.int64)
    count_sum = np.zeros(len(grid))
    for _ in range(repetitions):
        perm = rng.permutation(n)
        hits = np.cumsum(flags[perm])
        count_sum += hits[sizes - 1]
    counts = count_sum / repetitions
    percentages = 100.0 * counts / sizes
    return DetectionCurve("random", tuple(grid), sizes, counts, percentages)
