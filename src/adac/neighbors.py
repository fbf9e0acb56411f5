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
the normalized threshold alpha. Both searches cover every action:

- `NeighborIndex.search` finds the neighbors of many states and returns
  one flat table keyed by the pair id row * action_count + action, in
  pair order (the derivation's). It measures each state against a window
  of each action's points only (the sorted-projection search of
  Friedman, Baskett and Shustek, 1975). An action's points are sorted
  lexicographically over the coordinates by decreasing spread, so the
  widest, the key, comes first. The k-th smallest distance to the PROBE
  points around a state's place in that order bounds its k-th nearest
  from above, and under both norms no point whose key differs from the
  state's by more than that bound is nearer;
- `NeighborIndex.query` finds the neighbors of one state from its
  distances to all points, keyed by action (the one-step lookup's); it
  equals `search([s])` bit for bit.

The index also holds what the derivation and the lookup read beyond the
batch's columns: the core states (the distinct next states, in order of
first appearance) and each transition's landing core row. Distances are
normalized by the exact diameter of the core-state point cloud, from a
scan pruned to the points that can end a diameter pair. Every distance,
pruned or not, comes from `distances`, so each keeps its bits.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dataset import Batch, State, core_rows, freeze

NORMS = ("euclidean", "manhattan")

# elements of one block of the distance matrix (256 KB): bounds the kernel's
# memory, and blocks that stay in cache measured faster than larger ones
BLOCK = 1 << 15
# points around a query's place (k if more) whose k-th smallest distance
# bounds the query's k-th nearest from above
PROBE = 32
# the fewest (query, action) pairs measured together against the union of
# their windows
QUERIES = 16
# relative and absolute widening of the pruning bounds: far above the
# rounding of a distance, and of a difference below 1e-150, whose square
# may be subnormal; a wider bound only adds candidates
SLACK = 1e-9
TINY = 1e-150


def distances(queries: np.ndarray, points: np.ndarray, norm: str) -> np.ndarray:
    """(len(queries), m) matrix of distances from each query to the (m, dim)
    points, or to its own row of (len(queries), m, dim) points.

    Coordinates are accumulated one at a time, in order, so every entry
    equals the sequential sum over coordinates bit for bit, whichever
    matrix it is computed in.
    """
    acc = np.empty((len(queries), points.shape[-2]))
    term = np.empty_like(acc)
    for c in range(points.shape[-1]):
        # the first coordinate's term starts the sum (0 + term is term)
        out = term if c else acc
        np.subtract(points[..., c], queries[:, c, None], out=out)
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

    Take the centroid c, R the largest distance from c and L the largest
    distance from the point farthest from c. L is at most the diameter D,
    and both ends u, v of a diameter pair lie at least L - R from c, since
    D <= |u - c| + |c - v| <= |u - c| + R. Only those points are scanned
    against each other, with the same distances as a full scan, so the
    maximum keeps its bits.

    Degenerate clouds (fewer than two distinct points) get the sentinel
    1.0 so normalized distances equal raw ones.
    """
    pts = np.asfortranarray(points, dtype=float)
    best = 0.0
    if len(pts) > 1:
        center = pts.mean(axis=0)
        to_center = distances(center[None], pts, norm)[0]
        far = pts[to_center.argmax(), None]
        radius, reach = to_center.max(), distances(far, pts, norm).max()
        # the slack covers rounding; a NaN bound (from infinite distances)
        # keeps every point
        bound = reach - radius - SLACK * (reach + radius)
        ends = np.asfortranarray(pts[~(to_center < bound)])
        step = max(1, BLOCK // len(ends))
        # each block of rows against itself and every later point
        best = max((float(distances(ends[i:i + step], ends[i:], norm).max())
                    for i in range(0, len(ends) - 1, step)), default=0.0)
    if best == 0.0:
        warnings.warn("degenerate core-state cloud; diameter set to 1.0",
                      RuntimeWarning, stacklevel=2)
        return 1.0
    return best


@dataclass(frozen=True, eq=False)
class NeighborIndex:
    """Immutable index: no field can be assigned and every array is
    read-only. Safe for concurrent queries."""
    norm: str
    diameter: float
    action_count: int
    batch: Batch = field(repr=False)
    # the distinct next states in order of first appearance; transition i
    # lands in core state landing[i]
    core: tuple[State, ...] = field(repr=False)
    landing: np.ndarray = field(repr=False)
    # (m, dim) distinct source points, column-major so that each coordinate
    # is contiguous, grouped by action: action a's points are rows
    # _offsets[a]:_offsets[a + 1], and _point_actions[p] is point p's action.
    # Within an action the points are in lexicographic order over the
    # coordinates _order, by decreasing spread: _order[0], the widest, is
    # the key of the window search
    _order: np.ndarray = field(repr=False)
    _points: np.ndarray = field(repr=False)
    _point_actions: np.ndarray = field(repr=False)
    _offsets: tuple[int, ...] = field(repr=False)
    # transition indices grouped by point, in file order within a point:
    # point p's are _sources[_starts[p]:_starts[p + 1]]; _point_of[i] is the
    # point of transition i
    _sources: np.ndarray = field(repr=False)
    _starts: np.ndarray = field(repr=False)
    _point_of: np.ndarray = field(repr=False)

    def __post_init__(self):
        freeze(self)

    def points(self, action: int) -> np.ndarray:
        """The action's distinct source points, by first appearance."""
        lo, hi = self._offsets[action], self._offsets[action + 1]
        # each point's first transition (a point's are in file order)
        first = self._sources[self._starts[lo:hi]]
        return self._points[lo:hi][np.argsort(first)]

    def search(self, states, k: int, alpha: float = math.inf
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Neighbor table of the states for every action, as flat arrays:
        pair id (row * action_count + action), transition index and
        normalized distance of each neighbor. Pair by pair, each (state,
        action)'s at most k sources of that action with normalized distance
        <= alpha, nearest first, ties to the lower transition index.

        Each pair is measured against its window of the action's points
        only (see `_windows`). A window lies inside its action's points, so
        pairs sorted by window are grouped by action: they go QUERIES or
        more at a time, never two actions together, against the union of
        their windows. About every BLOCK candidate points are expanded to
        their transitions and selected, and one stable sort then restores
        pair order."""
        if k < 1:
            raise ValueError("k must be >= 1")
        pts, actions = self._points, self.action_count
        queries = np.asarray(states, dtype=float).reshape(len(states),
                                                          pts.shape[1])
        pair_ids, first, last = self._windows(queries, k)
        order = np.lexsort((last, first))
        tables, parts, size = [], [], 0
        step = max(QUERIES, BLOCK // len(pts))
        # a block starts at every step-th pair and at each action's first
        cuts = np.union1d(np.arange(0, len(order), step), np.flatnonzero(
            np.diff(pair_ids[order] % actions)) + 1).tolist()
        for i, j in zip(cuts, cuts[1:] + [len(order)]):
            block = order[i:j]
            ids = pair_ids[block]
            left, right = first[block].min(), last[block].max()
            d = distances(queries[ids // actions], pts[left:right], self.norm)
            # every point of the action at or below the pair's k-th smallest
            # distance
            rank = min(k, right - left) - 1
            kth = np.partition(d, rank, axis=1)[:, rank]
            at, col = np.nonzero(d <= kth[:, None])
            parts.append((ids[at], col + left, d[at, col]))
            size += len(at)
            if size >= BLOCK or j == len(order):
                tables.append(self._expand(parts, k, alpha))
                parts, size = [], 0
        if len(tables) == 1:
            return tables[0]        # one selection is in pair order already
        empty = (np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))
        pairs, sources, norm_dist = (np.concatenate(c)
                                     for c in zip(empty, *tables))
        order = np.argsort(pairs, kind="stable")
        return pairs[order], sources[order], norm_dist[order]

    def _windows(self, queries, k):
        """The pair id (row * action_count + action) of every query with
        every action that has points, and its window: the action's points
        first:last, which hold every point at or below the query's k-th
        smallest distance to them.

        A query's k-th smallest distance over any k of an action's points
        bounds its k-th over all of them from above: take the max(PROBE, k)
        points around its place in their lexicographic order. Under both
        norms a point at distance d has |x_c - q_c| <= d on the key
        coordinate c, so every point at or below the true k-th lies in the
        window of keys within that bound of q_c."""
        pts, key, offsets = self._points, self._order[0], self._offsets
        # action by action, the pairs of every query
        with_points = [a for a in range(self.action_count)
                       if offsets[a] < offsets[a + 1]]
        acts = np.repeat(with_points, len(queries))
        rows = np.arange(len(acts)) % len(queries)
        lo = np.take(offsets, acts)
        hi = np.take(offsets, acts + 1)
        pair_ids = rows * self.action_count + acts
        probe = max(PROBE, k)
        if len(rows) * len(pts) <= BLOCK or np.all(hi - lo <= probe):
            # all distances fit in one block, or the probe would measure every
            # point: windows would save nothing, so they are all the points
            return pair_ids, lo, hi
        # each pair's place among its action's points, from every point's and
        # query's rank in one lexicographic order
        merged = np.lexsort(
            np.concatenate((pts, queries))[:, self._order[::-1]].T)
        rank = np.empty(len(merged), dtype=int)
        rank[merged] = np.arange(len(merged))
        place = np.searchsorted(
            self._point_actions * len(rank) + rank[:len(pts)],
            acts * len(rank) + rank[len(pts):][rows])
        # the bound: the k-th smallest distance to the probe, inf where the
        # action has fewer than k points
        width = np.minimum(hi - lo, probe)
        start = np.minimum(np.maximum(place - width // 2, lo), hi - width)
        bound = np.empty(len(rows))
        step = max(1, BLOCK // probe)
        for i in range(0, len(rows), step):
            at = np.minimum(start[i:i + step, None] + np.arange(probe),
                            len(pts) - 1)
            d = distances(queries[rows[i:i + step]], pts[at], self.norm)
            d[np.arange(probe) >= width[i:i + step, None]] = np.inf
            bound[i:i + step] = np.partition(d, k - 1, axis=1)[:, k - 1]
        # slack for the rounding of the distances and of the window's ends
        q = queries[rows, key]
        reach = bound + SLACK * (np.abs(q) + bound) + TINY
        below, above = q - reach, q + reach
        first, last = lo.copy(), lo.copy()
        for i, a in enumerate(with_points):
            own = slice(i * len(queries), (i + 1) * len(queries))
            keys = pts[offsets[a]:offsets[a + 1], key]
            first[own] += np.searchsorted(keys, below[own], "left")
            last[own] += np.searchsorted(keys, above[own], "right")
        # a window holds its bound's point unless the bound is NaN, from a
        # query that is not finite: such a query sees all its action's points
        empty = first >= last
        first[empty], last[empty] = lo[empty], hi[empty]
        return pair_ids, first, last

    def _expand(self, parts, k, alpha):
        """The neighbor table of candidate points, given as (pair ids,
        points, distances) parts: their transitions, selected. A point's
        transitions are in file order, and ties go to the lower index, so
        its first k are the only ones a pair can keep."""
        pairs, near, dist = (np.concatenate(c) for c in zip(*parts))
        # candidate c's transitions are the counts[c] entries of _sources
        # from first[c] on
        first = self._starts[near]
        counts = np.minimum(self._starts[near + 1] - first, k)
        shift = np.repeat(first + counts - np.cumsum(counts), counts)
        return self._select(np.repeat(pairs, counts),
                            self._sources[shift + np.arange(len(shift))],
                            np.repeat(dist, counts), k, alpha)

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
        """The selection step of both searches. Given candidates with each
        group's k nearest and all its ties at the k-th distance among them,
        and their distances: each group's at most k nearest with normalized
        distance <= alpha, nearest first and ties to the lower transition
        index, as (groups, transition indices, normalized distances)."""
        order = np.lexsort((sources, dist, groups))
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
    """The first k neighbors of every pair of a `NeighborIndex.search`
    table. Both the k nearest and the alpha cut are prefixes of a pair, so
    from a table searched at a larger k this is the table searched at k,
    with the same alpha, bit for bit."""
    pairs, sources, norm_dist = table
    keep = group_rank(pairs) < k
    return pairs[keep], sources[keep], norm_dist[keep]


def row_means(rows: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Per row of a table of n rows, the mean of its values: their sum in
    table order over the row's count, 0 for an empty row. `np.bincount`
    adds the weights one entry at a time in input order, so each sum is bit
    for bit the sequential sum, where numpy's pairwise sum reorders at 8 or
    more terms."""
    counts = np.bincount(rows, minlength=n)
    return np.divide(np.bincount(rows, values, n), counts, out=np.zeros(n),
                     where=counts > 0)


def build_index(batch: Batch, norm: str = "euclidean") -> NeighborIndex:
    """Index of the batch's source states grouped by action, with distances
    normalized by the exact diameter of the core-state cloud.

    Actions with no transitions get an empty group; they have no neighbors.
    """
    if norm not in NORMS:
        raise ValueError(f"unknown norm {norm!r}")
    first, landing = core_rows(batch)
    core = batch.s_next[first]
    order = np.argsort(-np.ptp(batch.s, axis=0), kind="stable")
    # transitions by action, then coordinates by decreasing spread; the
    # stable sort keeps each point's transitions in file order
    sources = np.lexsort((*batch.s[:, order[::-1]].T, batch.a))
    actions, coords = batch.a[sources], batch.s[sources]
    # a transition starts a new point where its action or a coordinate
    # differs from the previous one's; equal coordinates give equal
    # distances, -0.0 and 0.0 included
    new = np.ones(len(sources), dtype=bool)
    new[1:] = (actions[1:] != actions[:-1]) | np.any(
        coords[1:] != coords[:-1], axis=1)
    point_of = np.empty(len(sources), dtype=int)
    point_of[sources] = np.cumsum(new) - 1
    point_actions = actions[new]
    offsets = tuple(np.searchsorted(
        point_actions, np.arange(batch.action_count + 1)).tolist())
    return NeighborIndex(norm, diameter(core, norm), batch.action_count, batch,
                         tuple(map(tuple, core.tolist())), landing, order,
                         np.asfortranarray(coords[new]), point_actions,
                         offsets, sources,
                         np.append(np.flatnonzero(new), len(sources)),
                         point_of)
