"""Per-action exact nearest-neighbor search over batch source pairs.

Pairs with different actions are treated as infinitely distant, so the
index keeps one sub-index per action over the source states of that
action's transitions. One batched kernel, `NeighborIndex.search`, answers
every search: it computes distances in row blocks of at most BLOCK
elements, keeps each row's sources at or below its k-th smallest
distance, orders them by distance with ties broken by lower transition
index, cuts them at the normalized threshold alpha and returns one flat
row-major table. `query` is the kernel on one state. Distances are
normalized by the exact diameter of the core-state point cloud, computed
from the same blocked distances.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dataset import Batch, State, core_states

NORMS = ("euclidean", "manhattan")

# elements of one block of the distance matrix (256 KB): bounds the kernel's
# memory, and blocks that stay in cache measured faster than larger ones
BLOCK = 1 << 15


def distances(queries: np.ndarray, points: np.ndarray, norm: str) -> np.ndarray:
    """(len(queries), len(points)) matrix of distances.

    Coordinates are accumulated one at a time, in order, so every entry
    equals the sequential sum over coordinates bit for bit.
    """
    acc = np.zeros((len(queries), len(points)))
    for c in range(points.shape[1]):
        diff = points[:, c] - queries[:, c, None]
        acc += diff * diff if norm == "euclidean" else np.abs(diff)
    return np.sqrt(acc, out=acc) if norm == "euclidean" else acc


def diameter(batch: Batch, norm: str = "euclidean") -> float:
    """Exact diameter of the core-state cloud.

    Degenerate clouds (fewer than two distinct points) get the sentinel
    1.0 so normalized distances equal raw ones.
    """
    pts = np.asfortranarray(core_states(batch), dtype=float)
    step = max(1, BLOCK // len(pts))
    # each block of rows against itself and every later point
    best = max((float(distances(pts[i:i + step], pts[i:], norm).max())
                for i in range(0, len(pts) - 1, step)), default=0.0)
    if best == 0.0:
        warnings.warn("degenerate core-state cloud; diameter set to 1.0",
                      RuntimeWarning, stacklevel=2)
        return 1.0
    return best


@dataclass
class NeighborIndex:
    """Immutable per-action brute-force index; safe for concurrent queries."""
    norm: str
    diameter: float
    action_count: int
    batch: Batch = field(repr=False)
    # per action: (n_a, dim) source coordinates, column-major so that each
    # coordinate is contiguous, and (n_a,) transition indices, both in file
    # order so column order breaks ties by transition index
    _points: list[np.ndarray] = field(repr=False)
    _indices: list[np.ndarray] = field(repr=False)

    def size(self, action: int) -> int:
        return len(self._indices[action])

    def search(self, states, a: int, k: int, alpha: float = math.inf
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Neighbor table of the states as flat arrays: state row, transition
        index and normalized distance of each neighbor. Row by row, each
        state's at most k same-action sources with normalized distance
        <= alpha, nearest first, ties to the lower transition index."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if not 0 <= a < self.action_count:
            raise ValueError(f"action {a} out of range")
        pts = self._points[a]
        queries = np.asarray(states, dtype=float).reshape(len(states),
                                                          pts.shape[1])
        parts = [(np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))]
        if len(pts) == 0:
            return parts[0]
        kth, step = min(k, len(pts)) - 1, max(1, BLOCK // len(pts))
        for start in range(0, len(queries), step):
            d = distances(queries[start:start + step], pts, self.norm)
            # every source at or below its row's k-th smallest distance, in
            # row-major order; the stable sort keeps ties in column order
            rows, cols = np.nonzero(
                d <= np.partition(d, kth, axis=1)[:, kth, None])
            order = np.lexsort((d[rows, cols], rows))
            rows, cols = rows[order], cols[order]
            norm_dist = d[rows, cols] / self.diameter
            # rank within the row: the k nearest and the alpha cut are prefixes
            keep = np.arange(len(rows)) - np.searchsorted(rows, rows) < k
            if alpha != math.inf:
                keep &= norm_dist <= alpha
            parts.append((rows[keep] + start, self._indices[a][cols[keep]],
                          norm_dist[keep]))
        return tuple(np.concatenate(col) for col in zip(*parts))

    def query(self, s: State, a: int, k: int, alpha: float = math.inf
              ) -> tuple[np.ndarray, np.ndarray]:
        """Transition indices and normalized distances of the at most k
        same-action sources of s with normalized distance <= alpha."""
        return self.search([s], a, k, alpha)[1:]


def row_sums(rows: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Per row of a row-major table of n rows, the sum of its values, added
    one rank at a time so that each row sums in table order, bit for bit
    the sequential sum; empty rows sum to 0."""
    rank = np.arange(len(rows)) - np.searchsorted(rows, rows)
    total = np.zeros(n)
    for r in range(int(rank.max(initial=-1)) + 1):
        at = rank == r
        total[rows[at]] += values[at]
    return total


def build_index(batch: Batch, norm: str = "euclidean") -> NeighborIndex:
    """One sub-index per action over that action's source states, with
    distances normalized by the exact diameter of the core-state cloud.

    Actions with no transitions get an empty sub-index; queries against
    them return empty neighbor sets.
    """
    if norm not in NORMS:
        raise ValueError(f"unknown norm {norm!r}")
    diam = diameter(batch, norm)
    points: list[np.ndarray] = []
    indices: list[np.ndarray] = []
    for a in range(batch.action_count):
        rows = [i for i, tr in enumerate(batch.transitions) if tr.a == a]
        indices.append(np.asarray(rows, dtype=int))
        points.append(np.asfortranarray(np.reshape(
            [batch.transitions[i].s for i in rows], (len(rows), batch.dim)),
            dtype=float))
    return NeighborIndex(norm, diam, batch.action_count, batch, points, indices)
