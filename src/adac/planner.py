"""Exact tabular solution of a derived MDP and the one-step state lookup.

The solver is modified policy iteration (Puterman and Shin, 1978). Each
outer step is one full backup, the product of the MDP's stacked transition
rows `DerivedMdp.stacked` with the value vector, written into buffers made
once. The greedy policy of that backup is then evaluated in part:
EVAL_SWEEPS sweeps of v <- r_pi + gamma * P_pi v, where P_pi is the
policy's n rows of the stacked matrix.

Both products are a `RowProduct`: each row is summed as 0.0 plus each
share times the value of its landing, in column order, so Q keeps the bits
of that sequential sum. numpy's reductions are not sequential sums at 8
terms or more, so the product holds its rows as one table, entry j of
every row in table row j, padded to the widest row with shares 0.0 (made
once per solve and again whenever the greedy policy changes): a product
is one gather, one multiply and the table's rows added in order. The
padded terms leave each sum's bits as they are while the values are
finite.

The stopping test is on full backups only, and on the span of their
change. Every row of the stacked matrix sums to 1, so for any v and
D = Tv - v the MacQueen (1966) and Porteus (1971) bounds hold:
Tv + g min D <= v* <= Tv + g max D with g = gamma / (1 - gamma), and the
same bounds hold for the value of a policy greedy in v (Puterman, 1994,
section 6.6). A backup stops the solve when half the span of D,
(max D - min D) / 2, is at most tol (1 - gamma) / gamma, that is when
g (max D - min D) / 2 <= tol. The values then move to the midpoint of
the bounds, v~ = Tv + g (max D + min D) / 2, and one more backup from v~
gives the returned Q table, values (its row maxima) and policy (its
first argmaxes). That backup changes v~ by at most
gamma (max D - min D) / 2 <= (1 - gamma) tol, so the bounds at v~ put v*
and the returned policy's own value within gamma * tol of the returned
values: `tol` bounds the true sup-norm error from any starting values,
not just the last change. The span is at most twice the sup-norm, so
this stops no later than a test on the sup-norm of D against
tol (1 - gamma) / gamma would. The test cannot resolve a change below
the float64 spacing of the largest value, so a tol below g times that
spacing is widened to it in the returned `Solution.tol`. A Q table past
float64's range is not returned: the solve raises ValueError.

The lookup acts from any state: `lookup_q` gives every action's Q from
one neighbor query over all actions, reduced as the derivation reduces
its table (`PenaltyMode.coefficients`, then `neighbors.row_means` of
each neighbor's shaped reward plus its discounted landing value), and
`greedy_action` takes its argmax. Ties in action selection always
resolve to the lowest action index.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import State, freeze, number_array, only, read_json
from .derivation import DerivedMdp, StackedRows
from .neighbors import NeighborIndex, row_means


# evaluation sweeps of the greedy policy after each full backup
EVAL_SWEEPS = 50


class ConvergenceError(RuntimeError):
    """The solver did not meet its tolerance within max_iters sweeps."""


@dataclass(frozen=True, eq=False)
class Solution:
    """A solve's Q table and how it stopped, ValueError unless q is finite
    and every figure in range. The values and the policy are q's row maxima
    and first argmaxes, set from q once here and stored nowhere else. No
    field can be assigned and every array is read-only."""
    q: np.ndarray            # (|core|, |actions|)
    # every sweep, full backups and evaluation sweeps, but not the final
    # backup from the shifted values, which gives q
    iterations: int
    residual: float          # max-norm change of that final backup
    tol: float               # bound on the sup-norm error of values
    deltas: tuple[float, ...] = ()   # max-norm change of each counted backup
    values: np.ndarray = field(init=False)   # (|core|,)
    policy: np.ndarray = field(init=False)   # (|core|,) int

    def __post_init__(self):
        iterations, residual, tol = self.iterations, self.residual, self.tol
        # a float q, as the reader and the solver make it
        if not (self.q.dtype.kind == "f" and self.q.ndim == 2
                and np.isfinite(self.q).all()):
            raise ValueError("'q' is not a finite 2-D array of numbers")
        if not self.q.shape[1]:
            raise ValueError("'q' has no action columns")
        if not (only([iterations], int) and iterations >= 0):
            raise ValueError(f"iterations {iterations!r} is not an integer "
                             ">= 0")
        if not (only([residual], (int, float)) and 0 <= residual < math.inf):
            raise ValueError(f"residual {residual!r} is not a finite number "
                             ">= 0")
        if not (only([tol], (int, float)) and 0 < tol < math.inf):
            raise ValueError(f"tol {tol!r} is not a finite positive number")
        object.__setattr__(self, "values", self.q.max(axis=1))
        object.__setattr__(self, "policy", self.q.argmax(axis=1))
        freeze(self)


class RowProduct:
    """P v for some rows of a stacked matrix (by default all of them), each
    row summed as 0.0 + data[lo] * v[indices[lo]] + ... in column order.

    The rows are held as a (W, rows) table of landing columns and shares,
    W the widest row's entry count, and a shorter row is padded with share
    0.0 on its own first column. A padded term is 0.0 * v, +-0.0 for a
    finite v, and adding +-0.0 to a sum that started at 0.0 keeps its bits,
    as round-to-nearest gives -0.0 only for -0.0 + -0.0. So for a finite v
    a call returns each row's sequential sum, in the given row order, in a
    buffer that the next call overwrites. Each row has at least one entry
    and its indices lie within v, as `DerivedMdp` checks."""

    def __init__(self, stacked: StackedRows, rows: np.ndarray | None = None):
        indptr = stacked.indptr
        if rows is None:
            rows = np.arange(len(indptr) - 1)
        starts, counts = indptr[rows], indptr[rows + 1] - indptr[rows]
        entry = np.arange(counts.max(initial=1))[:, None]
        inside = entry < counts
        positions = np.where(inside, starts + entry, starts)
        self._indices = stacked.indices[positions].astype(np.intp, copy=False)
        self._data = np.where(inside, stacked.data[positions], 0.0)
        self._buf, self._out = np.empty(self._data.shape), np.zeros(len(rows))
        # the table's rows, made once: term j of every row's sum
        self._terms = list(self._buf)

    def __call__(self, v: np.ndarray) -> np.ndarray:
        buf, out = self._buf, self._out
        # the indices are checked, so clipping never acts; it is the fast mode
        v.take(self._indices, None, buf, "clip")
        np.multiply(buf, self._data, buf)
        total = 0.0
        for term in self._terms:
            np.add(total, term, out)
            total = out
        return out


def value_iteration(mdp: DerivedMdp, tol: float = 1e-9,
                    max_iters: int = 200_000) -> Solution:
    """Solve the MDP to within tol; ConvergenceError if max_iters sweeps,
    full backups and evaluation sweeps together, do not get there, and
    ValueError if the values overflow float64."""
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters!r}")
    gamma = mdp.gamma
    n, actions = mdp.num_states(), mdp.action_count
    stacked, product = mdp.stacked, RowProduct(mdp.stacked)
    reward = np.ascontiguousarray(mdp.reward.T)
    states = np.arange(n)
    # each full backup writes into these buffers: Q, the new values and
    # v_new - v; each evaluation sweep writes v in place
    q, v, v_new, diff = (np.empty((actions, n)), np.zeros(n), np.empty(n),
                         np.empty(n))

    def backup(v: np.ndarray) -> np.ndarray:
        """Action-major Q of one full backup from values v, shape (A, n)."""
        np.multiply(product(v).reshape(actions, n), gamma, out=q)
        return np.add(reward, q, out=q)

    def change(v_new: np.ndarray, v: np.ndarray) -> tuple[float, float]:
        """Largest and smallest entry of v_new - v (0 and 0 with no states)."""
        if not n:
            return 0.0, 0.0
        np.subtract(v_new, v, out=diff)
        return float(diff.max()), float(diff.min())

    threshold = math.inf if gamma == 0.0 else tol * (1.0 - gamma) / gamma
    deltas, sweeps, greedy = [], 0, None
    while sweeps < max_iters:
        sweeps += 1
        np.max(backup(v), axis=0, out=v_new)
        hi, lo = change(v_new, v)
        deltas.append(max(hi, -lo))
        v, v_new = v_new, v
        # hi + lo not finite: the values, or the shift below, overflow
        if (hi - lo) / 2 <= threshold or not math.isfinite(hi + lo):
            # the midpoint of the bounds on v*, halved before the factor so
            # that g (hi + lo) cannot overflow, then one more backup from it
            v += gamma / (1.0 - gamma) * ((hi + lo) / 2)
            q = backup(v).T.copy()
            if not np.isfinite(q).all():
                raise ValueError(f"the values overflow float64: the rewards "
                                 f"are too large for gamma {gamma!r}")
            values = q.max(axis=1)
            hi, lo = change(values, v)
            # the span test cannot see a change below the values' spacing
            top = float(np.abs(values).max(initial=0.0))
            return Solution(q, sweeps, max(hi, -lo),
                            max(tol, gamma / (1.0 - gamma) * math.ulp(top)),
                            tuple(deltas))
        # partial evaluation of the greedy policy over its n rows of the
        # stacked matrix, whose table is made again only when the policy
        # changes
        policy = q.argmax(axis=0)
        if not np.array_equal(policy, greedy):
            greedy = policy
            rows = policy * n + states
            p_pi, r_pi = RowProduct(stacked, rows), reward.ravel()[rows]
        evals = min(EVAL_SWEEPS, max_iters - sweeps)
        for _ in range(evals):
            np.multiply(p_pi(v), gamma, out=v)
            np.add(r_pi, v, out=v)
        sweeps += evals
    raise ConvergenceError(
        f"no convergence after {max_iters} sweeps, {len(deltas)} of them "
        f"full backups (last backup change {deltas[-1]:.3e})")


def lookup_q(mdp: DerivedMdp, solution: Solution, index: NeighborIndex,
             s: State) -> np.ndarray:
    """Q-values of an arbitrary state, one per action: over its neighbors,
    the mean of the shaped reward r_i - coef * d'_i plus the discounted
    solved value of the neighbor's landing core state.

    The neighbors are the derivation's: the MDP's k, alpha and penalty
    mode over the index it was derived with, found for all actions in one
    `NeighborIndex.query` and reduced with the derivation's own
    coefficient rule and per-pair mean, one sum per action in neighbor
    order. An action with no neighbors looks up 0, the pessimistic floor
    used throughout the derivation. At a core state with all values 0 the
    lookup is the MDP's reward bit for bit; with the solved values it is
    the MDP's reward plus gamma times the expected value of the landing
    distribution up to rounding, as the continuation joins the same sum.
    It is not the solved Q table: it uses the final values once, and an
    empty pair looks up 0 where the table holds gamma times the state's
    value.
    """
    actions, sources, norm_dist = index.query(s, mdp.k, mdp.alpha)
    r = index.batch.r[sources]
    coef = mdp.mode.coefficients(actions, r, mdp.action_count)
    # the continuation stays inside the one sum per action
    return row_means(actions, r - coef[actions] * norm_dist + mdp.gamma
                     * solution.values[index.landing[sources]],
                     mdp.action_count)


def greedy_action(mdp: DerivedMdp, solution: Solution, index: NeighborIndex,
                  s: State) -> int:
    """Argmax of lookup_q over actions, lowest index on ties."""
    return int(np.argmax(lookup_q(mdp, solution, index, s)))


def solution_to_json(solution: Solution) -> str:
    return json.dumps({
        "q": solution.q.tolist(),
        "iterations": solution.iterations,
        "residual": solution.residual,
        "tol": solution.tol,
    })


def solution_from_json(text: str) -> Solution:
    """Parse a solution written by solution_to_json; ValueError unless it is one."""
    return read_json(text, "solution", _solution_from_doc)


def _solution_from_doc(doc: dict) -> Solution:
    if "values" in doc or "policy" in doc:
        raise ValueError("an older solution file, holding 'values' and "
                         "'policy': solve the MDP again")
    return Solution(number_array(doc["q"], "q", 2),
                    *(doc.get(key) for key in ("iterations", "residual",
                                               "tol")))


def check_artifacts(index: NeighborIndex, mdp: DerivedMdp,
                    solution: Solution) -> None:
    """ValueError unless the MDP was derived with the index and the
    solution has the MDP's shape."""
    check_index(index, mdp)
    n, actions = mdp.num_states(), mdp.action_count
    if solution.q.shape != (n, actions):
        raise ValueError(
            f"solution of q shape {solution.q.shape} does not fit an MDP of "
            f"{n} core states and {actions} actions")


def check_index(index: NeighborIndex, mdp: DerivedMdp) -> None:
    """ValueError unless the MDP was derived with the index: its batch's
    core states, its norm and its diameter."""
    if index.core != mdp.core:
        raise ValueError("the source batch's core states differ from the "
                         "MDP's: not the batch it was derived from")
    if (index.norm, index.diameter) != (mdp.norm, mdp.diameter):
        raise ValueError(f"index norm {index.norm} and diameter {index.diameter!r}"
                         f" differ from the MDP's {mdp.norm} and {mdp.diameter!r}")
