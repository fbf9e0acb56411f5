"""Per-action exact nearest-neighbor search over batch source pairs.

Pairs with different actions are treated as infinitely distant. The index
keeps every source state in one array, grouped by action and in
transition order within an action. Two searches share one selection step,
which keeps each group's sources at or below its k-th smallest distance,
orders them by distance with ties broken by lower transition index and
cuts them at the normalized threshold alpha:

- `NeighborIndex.search` finds the neighbors of many states for one
  action, from distances computed in row blocks of at most BLOCK
  elements, and returns one flat row-major table (the derivation's);
- `NeighborIndex.query` finds the neighbors of one state for every
  action, from one distance pass over all sources (the one-step lookup's).

Distances are normalized by the exact diameter of the core-state point
cloud, computed from the same blocked distances.
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
    """Immutable brute-force index; safe for concurrent queries."""
    norm: str
    diameter: float
    action_count: int
    batch: Batch = field(repr=False)
    # (n, dim) source coordinates, column-major so that each coordinate is
    # contiguous, grouped by action and in file order within an action, so
    # that column order breaks ties by transition index; action a's sources
    # are rows _offsets[a]:_offsets[a + 1]
    _points: np.ndarray = field(repr=False)
    _indices: np.ndarray = field(repr=False)    # (n,) transition indices
    _actions: np.ndarray = field(repr=False)    # (n,) actions
    _offsets: list[int] = field(repr=False)

    def size(self, action: int) -> int:
        return self._offsets[action + 1] - self._offsets[action]

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
        lo, hi = self._offsets[a], self._offsets[a + 1]
        pts = self._points[lo:hi]
        queries = np.asarray(states, dtype=float).reshape(len(states),
                                                          pts.shape[1])
        parts = [(np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))]
        if len(pts) == 0:
            return parts[0]
        kth, step = min(k, len(pts)) - 1, max(1, BLOCK // len(pts))
        for start in range(0, len(queries), step):
            d = distances(queries[start:start + step], pts, self.norm)
            # every source at or below its row's k-th smallest distance, in
            # row-major order
            rows, cols = np.nonzero(
                d <= np.partition(d, kth, axis=1)[:, kth, None])
            rows, cols, norm_dist = self._select(rows, cols, d[rows, cols],
                                                 k, alpha)
            parts.append((rows + start, self._indices[lo + cols], norm_dist))
        return tuple(np.concatenate(col) for col in zip(*parts))

    def query(self, s: State, k: int, alpha: float = math.inf
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Neighbor table of one state for every action, from one distance
        pass: action, transition index and normalized distance of each
        neighbor. Action by action, the at most k sources of that action
        with normalized distance <= alpha, nearest first, ties to the lower
        transition index."""
        if k < 1:
            raise ValueError("k must be >= 1")
        d = distances(np.asarray(s, dtype=float).reshape(
            1, self._points.shape[1]), self._points, self.norm)[0]
        # each action's k-th smallest distance, and every source at or below
        # its action's, in column order
        kth = np.zeros(self.action_count)
        for a, (lo, hi) in enumerate(zip(self._offsets, self._offsets[1:])):
            if lo < hi:
                rank = min(k, hi - lo) - 1
                kth[a] = np.partition(d[lo:hi], rank)[rank]
        cols = np.flatnonzero(d <= kth[self._actions])
        actions, cols, norm_dist = self._select(self._actions[cols], cols,
                                                d[cols], k, alpha)
        return actions, self._indices[cols], norm_dist

    def _select(self, groups, cols, dist, k, alpha):
        """The selection step of both searches. Given candidates in (group,
        column) order with their distances, each group's at most k nearest
        with normalized distance <= alpha, nearest first and ties to the
        lower column: (groups, columns, normalized distances)."""
        # the stable sort keeps ties in column order
        order = np.lexsort((dist, groups))
        groups, cols = groups[order], cols[order]
        norm_dist = dist[order] / self.diameter
        # rank within the group: the k nearest and the alpha cut are prefixes
        keep = np.arange(len(groups)) - np.searchsorted(groups, groups) < k
        if alpha != math.inf:
            keep &= norm_dist <= alpha
        return groups[keep], cols[keep], norm_dist[keep]


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
    """Index of the batch's source states grouped by action, with distances
    normalized by the exact diameter of the core-state cloud.

    Actions with no transitions get an empty group; they have no neighbors.
    """
    if norm not in NORMS:
        raise ValueError(f"unknown norm {norm!r}")
    diam = diameter(batch, norm)
    actions = np.array([tr.a for tr in batch.transitions], dtype=int)
    order = np.argsort(actions, kind="stable")
    points = np.asfortranarray(np.reshape(
        [batch.transitions[i].s for i in order.tolist()],
        (len(order), batch.dim)), dtype=float)
    offsets = np.searchsorted(actions[order],
                              np.arange(batch.action_count + 1)).tolist()
    return NeighborIndex(norm, diam, batch.action_count, batch, points, order,
                         actions[order], offsets)
