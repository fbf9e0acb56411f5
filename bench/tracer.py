"""Spans and counts around calls into adac's public functions.

The tracer replaces a function where its caller looks it up (a module
global or a class attribute) with a wrapper that times the call and links
it to the innermost traced call that is still open. Calls to hot functions
(one per query, decision or environment step) only add to per-name totals;
the others also keep a span (id, parent, name, start, end). Self time is a
call's duration minus the time of the traced calls made inside it.
"""

import importlib
from collections import Counter, defaultdict

_SWEEPS = {"count": ("planner.sweeps", lambda solution: solution.iterations)}

# (module or class, attribute, traced name, options); a name can be looked
# up in several modules, and each lookup site gets its own wrapper.
TARGETS = [
    ("adac.policies", "collect", "policies.collect", {}),
    ("adac.traffic", "step", "traffic.step", {"hot": True}),
    ("adac.dataset", "save_batch", "dataset.save_batch", {}),
    ("adac.dataset", "load_batch", "dataset.load_batch", {}),
    ("adac.neighbors", "diameter", "neighbors.diameter", {}),
    ("adac.neighbors", "build_index", "neighbors.build_index", {}),
    ("adac.derivation", "build_index", "neighbors.build_index", {}),
    ("adac.evaluation", "build_index", "neighbors.build_index", {}),
    ("adac.neighbors:NeighborIndex", "query", "neighbors.query",
     {"hot": True, "durations": True}),
    ("adac.derivation", "build_mdp", "derivation.build_mdp", {}),
    ("adac.evaluation", "build_mdp", "derivation.build_mdp", {}),
    ("adac.derivation", "mdp_to_json", "derivation.mdp_to_json", {}),
    ("adac.derivation", "mdp_from_json", "derivation.mdp_from_json", {}),
    ("adac.planner", "value_iteration", "planner.value_iteration", _SWEEPS),
    ("adac.evaluation", "value_iteration", "planner.value_iteration", _SWEEPS),
    ("adac.planner", "solution_to_json", "planner.solution_to_json", {}),
    ("adac.planner", "solution_from_json", "planner.solution_from_json", {}),
    ("adac.policies", "greedy_action", "planner.greedy_action", {"hot": True}),
    ("adac.planner", "lookup_q", "planner.lookup_q", {"hot": True}),
    ("adac.evaluation", "evaluate", "evaluation.evaluate", {}),
    ("adac.evaluation", "sweep_c", "evaluation.sweep_c", {}),
    ("adac.evaluation", "sweep_k", "evaluation.sweep_k", {}),
]


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Spans and counts timed by `clock()`, a function returning seconds."""

    def __init__(self, clock):
        self.clock = clock
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.durations = defaultdict(list)
        self.counts = Counter()
        self.spans = []             # [id, parent id, name, start, end]
        self.present = set()        # traced names found at install time
        self._stack = []            # open calls: [span id or None, child s]
        self._installed = []
        self._t0 = clock()

    def install(self, targets=TARGETS):
        """Wrap every target that exists; a missing one leaves its traced
        name out of `present`."""
        for path, attr, name, opts in targets:
            owner = _owner(path)
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            self.present.add(name)
            self._installed.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, **opts))

    def uninstall(self):
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def _wrap(self, name, fn, hot=False, durations=False, count=None):
        def traced(*args, **kwargs):
            with self.span(name, hot, durations):
                result = fn(*args, **kwargs)
            if count is not None:
                self.counts[count[0]] += count[1](result)
            return result
        traced.__wrapped__ = fn
        return traced

    def span(self, name, hot=False, durations=False):
        return _Span(self, name, hot, durations)

    def _open(self, name, hot):
        span_id = None
        if not hot:
            span_id = len(self.spans)
            parent = next((f[0] for f in reversed(self._stack)
                           if f[0] is not None), None)
            self.spans.append([span_id, parent, name, None, None])
        frame = [span_id, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, name, frame, start, end, durations):
        self._stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - frame[1]
        if durations:
            self.durations[name].append(dur)
        if frame[0] is not None:
            self.spans[frame[0]][3:] = [start - self._t0, end - self._t0]
        if self._stack:
            self._stack[-1][1] += dur


class _Span:
    __slots__ = ("tracer", "name", "hot", "durations", "frame", "start")

    def __init__(self, tracer, name, hot, durations):
        self.tracer, self.name = tracer, name
        self.hot, self.durations = hot, durations

    def __enter__(self):
        self.frame = self.tracer._open(self.name, self.hot)
        self.start = self.tracer.clock()
        return self.frame

    def __exit__(self, *exc):
        end = self.tracer.clock()
        self.tracer._close(self.name, self.frame, self.start, end,
                           self.durations)
        return False
