"""Per-action exact nearest-neighbor search over batch source pairs.

Pairs with different actions are treated as infinitely distant. States
of integer queue counts repeat, and so do most source pairs: the index
keeps each distinct (action, source point) once, grouped by action, with
its transitions in file order. Both searches measure distances to the
distinct points only. An action's k-th smallest distance over its
distinct points is at least its k-th over its transitions, so the
transitions of the points at or below it hold every exact neighbor and
every tie. One selection step then orders those candidates by distance,
ties to the lower transition index, keeps the first k and cuts them at
the normalized threshold alpha:

- `NeighborIndex.search` finds the neighbors of many states for one
  action, from distances computed in row blocks of at most BLOCK
  elements, and returns one flat row-major table (the derivation's);
- `NeighborIndex.query` finds the neighbors of one state for every
  action, from one distance pass over all points (the one-step lookup's).

The index also holds the batch in the array form the derivation and the
lookup read: the core states (the distinct next states, in order of first
appearance), each transition's reward and each transition's landing core
row. Distances are normalized by the exact diameter of the core-state
point cloud, computed from the same blocked distances.
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
    acc = np.empty((len(queries), len(points)))
    term = np.empty_like(acc)
    for c in range(points.shape[1]):
        # the first coordinate's term starts the sum (0 + term is term)
        out = term if c else acc
        np.subtract(points[:, c], queries[:, c, None], out=out)
        if norm == "euclidean":
            np.multiply(out, out, out=out)
        else:
            np.abs(out, out=out)
        if c:
            acc += term
    return np.sqrt(acc, out=acc) if norm == "euclidean" else acc


def diameter(points, norm: str = "euclidean") -> float:
    """Exact diameter of a point cloud (the core states), given as a
    sequence of states.

    Degenerate clouds (fewer than two distinct points) get the sentinel
    1.0 so normalized distances equal raw ones.
    """
    pts = np.asfortranarray(points, dtype=float)
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
    # the distinct next states in order of first appearance; transition i
    # has reward rewards[i] and lands in core state landing[i]
    core: tuple[State, ...] = field(repr=False)
    rewards: np.ndarray = field(repr=False)
    landing: np.ndarray = field(repr=False)
    # (m, dim) distinct source points, column-major so that each coordinate
    # is contiguous, grouped by action: action a's points are rows
    # _offsets[a]:_offsets[a + 1], and _point_actions[p] is point p's action
    _points: np.ndarray = field(repr=False)
    _point_actions: np.ndarray = field(repr=False)
    _offsets: list[int] = field(repr=False)
    # transition indices grouped by point, in file order within a point:
    # point p's are _sources[_starts[p]:_starts[p + 1]]; _point_of[i] is the
    # point of transition i
    _sources: np.ndarray = field(repr=False)
    _starts: np.ndarray = field(repr=False)
    _point_of: np.ndarray = field(repr=False)

    def size(self, action: int) -> int:
        """Number of transitions with the action."""
        lo, hi = self._offsets[action], self._offsets[action + 1]
        return int(self._starts[hi] - self._starts[lo])

    def points(self, action: int) -> np.ndarray:
        """The action's distinct source points, by first appearance."""
        lo, hi = self._offsets[action], self._offsets[action + 1]
        # each point's first transition (a point's are in file order)
        first = self._sources[self._starts[lo:hi]]
        return self._points[lo:hi][np.argsort(first)]

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
        n = len(self._sources)
        for start in range(0, len(queries), step):
            d = distances(queries[start:start + step], pts, self.norm)
            # every point at or below its row's k-th smallest distance
            rows, near = np.nonzero(
                d <= np.partition(d, kth, axis=1)[:, kth, None])
            # their transitions, candidate by candidate: candidate c's are the
            # counts[c] entries of _sources from first[c] on
            first = self._starts[lo + near]
            counts = self._starts[lo + near + 1] - first
            shift = np.repeat(first + counts - np.cumsum(counts), counts)
            sources = self._sources[shift + np.arange(len(shift))]
            # in (row, transition index) order
            rows, sources = np.divmod(
                np.sort(np.repeat(rows, counts) * n + sources), n)
            rows, sources, norm_dist = self._select(
                rows, sources, d[rows, self._point_of[sources] - lo], k, alpha)
            parts.append((rows + start, sources, norm_dist))
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
        # each action's k-th smallest distance, and the transitions of every
        # point at or below its action's, in file order
        kth = np.zeros(self.action_count)
        for a, (lo, hi) in enumerate(zip(self._offsets, self._offsets[1:])):
            if lo < hi:
                rank = min(k, hi - lo) - 1
                kth[a] = np.partition(d[lo:hi], rank)[rank]
        sources = np.flatnonzero(
            (d <= kth[self._point_actions])[self._point_of])
        points = self._point_of[sources]
        return self._select(self._point_actions[points], sources, d[points],
                            k, alpha)

    def _select(self, groups, sources, dist, k, alpha):
        """The selection step of both searches. Given candidates in (group,
        transition index) order, with each group's k nearest and all its
        ties at the k-th distance among them, and their distances: each
        group's at most k nearest with normalized distance <= alpha, nearest
        first and ties to the lower transition index, as (groups, transition
        indices, normalized distances)."""
        # the stable sort keeps ties in transition order
        order = np.lexsort((dist, groups))
        groups, sources = groups[order], sources[order]
        norm_dist = dist[order] / self.diameter
        # the k nearest and the alpha cut are prefixes of each group
        keep = group_rank(groups) < k
        if alpha != math.inf:
            keep &= norm_dist <= alpha
        return groups[keep], sources[keep], norm_dist[keep]


def group_rank(groups: np.ndarray) -> np.ndarray:
    """Each entry's rank within its group, for entries sorted by group."""
    return np.arange(len(groups)) - np.searchsorted(groups, groups)


def prefix(table: tuple[np.ndarray, np.ndarray, np.ndarray], k: int
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first k neighbors of every row of a `NeighborIndex.search`
    table. Both the k nearest and the alpha cut are prefixes of a row, so
    from a table searched at a larger k this is the table searched at k,
    with the same alpha, bit for bit."""
    rows, sources, norm_dist = table
    keep = group_rank(rows) < k
    return rows[keep], sources[keep], norm_dist[keep]


def row_sums(rows: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Per row of a row-major table of n rows, the sum of its values, added
    one rank at a time so that each row sums in table order, bit for bit
    the sequential sum; empty rows sum to 0."""
    rank = group_rank(rows)
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
    core = tuple(core_states(batch))
    diam = diameter(core, norm)
    row_of = dict(zip(core, range(len(core))))
    landing = np.array([row_of[tr.s_next] for tr in batch.transitions])
    rewards = np.array([tr.r for tr in batch.transitions])
    actions = np.array([tr.a for tr in batch.transitions], dtype=int)
    coords = np.reshape([tr.s for tr in batch.transitions],
                        (len(actions), batch.dim)).astype(float)
    # transitions by action, then coordinates; the stable sort keeps each
    # point's transitions in file order
    sources = np.lexsort((*coords.T[::-1], actions))
    actions, coords = actions[sources], coords[sources]
    # a transition starts a new point where its action or a coordinate
    # differs from the previous one's; equal coordinates give equal
    # distances, -0.0 and 0.0 included
    new = np.ones(len(sources), dtype=bool)
    new[1:] = (actions[1:] != actions[:-1]) | np.any(
        coords[1:] != coords[:-1], axis=1)
    point_of = np.empty(len(sources), dtype=int)
    point_of[sources] = np.cumsum(new) - 1
    point_actions = actions[new]
    offsets = np.searchsorted(point_actions,
                              np.arange(batch.action_count + 1)).tolist()
    return NeighborIndex(norm, diam, batch.action_count, batch, core, rewards,
                         landing, np.asfortranarray(coords[new]),
                         point_actions, offsets, sources,
                         np.append(np.flatnonzero(new), len(sources)),
                         point_of)
