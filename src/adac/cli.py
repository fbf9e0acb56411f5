"""Command-line surface.

Subcommands: collect, derive, solve, eval, sweep-c, sweep-k, bounds,
cover, shaping-sweep, reproduce-table2, two-flow-demo; two-flow-demo takes
no options. Exit code 0 on success, 1 on validation errors, 2 when the
solver fails to converge. ADAC_SEED sets the default seed.
"""

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from . import evaluation, theory
from .dataset import BatchError, load_batch, save_batch
from .derivation import PenaltyMode, build_mdp, mdp_from_json, mdp_to_json
from .neighbors import NORMS, build_index
from .planner import (ConvergenceError, solution_from_json, solution_to_json,
                      value_iteration)
from .policies import (CyclicPolicy, EpsilonNoisyPolicy, FixedCyclePolicy,
                       GreedyDerivedPolicy, ProportionalPolicy, RandomPolicy,
                       collect)
from .traffic import (EnvState, IntersectionEnvConfig, check_fit,
                      check_queues, config_from_json, two_flow_config)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the CLI contract reserves 2
    # for non-convergence
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(f"error: {message}")


def _number(text: str, option: str, kind=float):
    """One number of the kind, or ValueError naming the option."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{option}: {text!r} is not " + (
            "an integer" if kind is int else "a number")) from None


def _parse_numbers(text: str, option: str, kind=int) -> list:
    """Comma-separated numbers of the kind, integers also as inclusive
    lo..hi ranges."""
    out = []
    for part in filter(None, map(str.strip, text.split(","))):
        lo, dots, hi = part.partition("..")
        try:
            out.extend(range(int(lo), int(hi) + 1) if dots and kind is int
                       else [kind(part)])
        except ValueError:
            raise ValueError(f"{option}: {part!r} is " + (
                "neither an integer nor a lo..hi range of integers"
                if kind is int else "not a number")) from None
    return out


def _load(path, parse):
    """The artifact in the file, read by parse from its text."""
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def _load_env(path) -> IntersectionEnvConfig:
    return two_flow_config() if path is None else _load(path, config_from_json)


def _add_metric_args(p):
    p.add_argument("--metric", dest="norm", choices=NORMS, default="euclidean")


def _build_policy(args, config):
    if args.policy == "cyclic":
        policy = CyclicPolicy(config.action_count)
    elif args.policy == "random":
        policy = RandomPolicy(config.action_count, args.seed)
    elif args.policy == "proportional":
        policy = ProportionalPolicy(config.rates, args.period)
    elif args.policy == "fixed-cycle":
        cycle = _parse_numbers(args.cycle, "--cycle")
        if not all(0 <= a < config.action_count for a in cycle):
            raise ValueError(f"--cycle {args.cycle!r} names an action outside "
                             f"the env's {config.action_count} phases")
        policy = FixedCyclePolicy(cycle)
    else:   # greedy, the last of the parser's choices
        if not (args.mdp and args.solution and args.source_batch):
            raise BatchError("greedy policy needs --mdp, --solution, and "
                             "--source-batch")
        mdp = _load(args.mdp, mdp_from_json)
        check_fit(config, len(mdp.core[0]), mdp.action_count, "MDP")
        solution = _load(args.solution, solution_from_json)
        source = load_batch(args.source_batch)
        index = build_index(source, mdp.norm)
        policy = GreedyDerivedPolicy(mdp, solution, index)
    if args.epsilon != 0:
        policy = EpsilonNoisyPolicy(policy, args.epsilon,
                                    config.action_count, args.seed)
    return policy


def _add_policy_args(p):
    p.add_argument("--policy", default="cyclic",
                   choices=("cyclic", "random", "proportional", "greedy",
                            "fixed-cycle"))
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--period", type=int, default=10,
                   help="cycle length for the proportional policy")
    p.add_argument("--cycle", default="0,1",
                   help="comma-separated action sequence for fixed-cycle")
    p.add_argument("--mdp", help="derived MDP snapshot (greedy policy)")
    p.add_argument("--solution", help="solver output (greedy policy)")
    p.add_argument("--source-batch",
                   help="batch the MDP was derived from (greedy policy)")


def _add_rollout_args(p):
    p.add_argument("--episodes", type=int, default=1)
    p.add_argument("--horizon", type=int,
                   help="steps per episode (default: the env's horizon)")
    p.add_argument("--start", help="comma-separated start queues, e.g. 1,3")


def _add_eval_args(p):
    _add_rollout_args(p)
    p.add_argument("--gamma", type=float, default=0.99)
    p.add_argument("--seeds", help="comma-separated, one per episode")


def _horizon(args, config) -> int:
    return config.horizon if args.horizon is None else args.horizon


def _start_state(args, config) -> EnvState:
    if not args.start:
        return EnvState((0,) * len(config.flows))
    queues = tuple(_parse_numbers(args.start, "--start"))
    try:
        check_queues(config, queues)
    except ValueError as exc:
        raise ValueError(f"--start {args.start!r}: {exc}") from None
    return EnvState(queues)


def _episode_seeds(args):
    if args.seeds:
        return _parse_numbers(args.seeds, "--seeds")
    return list(range(args.seed, args.seed + args.episodes))


def _write_csv(path, fieldnames, rows):
    out = open(path, "w", newline="", encoding="utf-8") if path else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if path:
            out.close()


def _print_json(doc, path=None):
    text = json.dumps(doc, indent=2)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_collect(args):
    config = _load_env(args.env)
    policy = _build_policy(args, config)
    horizon = _horizon(args, config)
    batch = collect(config, policy, args.episodes, horizon,
                    _start_state(args, config),
                    rng=np.random.default_rng(args.seed))
    save_batch(batch, args.out)
    print(f"wrote {len(batch)} transitions "
          f"({args.episodes} episodes x {horizon} steps) to {args.out}")


def cmd_derive(args):
    batch = load_batch(args.batch)
    try:
        mode = PenaltyMode.parse(args.penalty)
    except ValueError as exc:
        raise ValueError(f"--penalty: {exc}") from None
    mdp = build_mdp(batch, k=args.k, alpha=_number(args.alpha, "--alpha"),
                    gamma=args.gamma, mode=mode,
                    index=build_index(batch, args.norm))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(mdp_to_json(mdp))
    print(f"derived MDP: {mdp.num_states()} core states, "
          f"{mdp.action_count} actions, {len(mdp.empty_pairs)} empty pairs, "
          f"diameter {mdp.diameter:.6g} -> {args.out}")


def cmd_solve(args):
    mdp = _load(args.mdp, mdp_from_json)
    solution = value_iteration(mdp, tol=args.tol, max_iters=args.max_iters)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(solution_to_json(solution))
    print(f"solved in {solution.iterations} sweeps with "
          f"{len(solution.deltas)} policy improvements, "
          f"residual {solution.residual:.3e} -> {args.out}")
    if solution.tol != args.tol:
        print(f"tol widened from {args.tol:.3e} to {solution.tol:.3e}, the "
              "float64 resolution of the values")


def cmd_eval(args):
    config = _load_env(args.env)
    policy = _build_policy(args, config)
    report = evaluation.evaluate(config, policy, args.episodes,
                                 _horizon(args, config), args.gamma,
                                 seeds=_episode_seeds(args),
                                 start=_start_state(args, config))
    _print_json(dataclasses.asdict(report), args.out)


def cmd_sweep_c(args):
    config = _load_env(args.env)
    batch = load_batch(args.batch)
    rows = evaluation.sweep_c(
        batch, _parse_numbers(args.c_values, "--c-values", float), args.k,
        _number(args.alpha, "--alpha"), args.gamma, config, args.episodes,
        _horizon(args, config), seeds=_episode_seeds(args),
        start=_start_state(args, config),
        norm=args.norm, snapshot_dir=args.snapshot_dir)
    _write_csv(args.out, ["c", "mean_return"], rows)


def cmd_sweep_k(args):
    config = _load_env(args.env)
    batch = load_batch(args.batch)
    rows = evaluation.sweep_k(
        batch, _parse_numbers(args.k_values, "--k-values"),
        _number(args.alpha, "--alpha"), args.gamma, config, args.episodes,
        _horizon(args, config), seeds=_episode_seeds(args),
        start=_start_state(args, config),
        norm=args.norm)
    _write_csv(args.out, ["k", "mean_return"], rows)


def cmd_bounds(args):
    batch = load_batch(args.batch)
    mdp = _load(args.mdp, mdp_from_json)
    solution = _load(args.solution, solution_from_json)
    report = theory.pac_bound(batch, mdp, solution, args.delta,
                              alpha=None if args.alpha is None
                              else _number(args.alpha, "--alpha"))
    _print_json(dataclasses.asdict(report), args.out)


def cmd_cover(args):
    batch = load_batch(args.batch)
    index = build_index(batch, args.norm)
    print(theory.covering_number(index, _number(args.alpha, "--alpha")))


def cmd_shaping_sweep(args):
    r_max_values = _parse_numbers(args.r_max_values, "--r-max-values", float)
    modes = [PenaltyMode.averagers(), *map(PenaltyMode.fixed, _parse_numbers(
        args.c_values, "--c-values", float)), PenaltyMode.adaptive()]
    if not r_max_values:
        raise ValueError("--r-max-values: empty r_max grid")
    rows = [{"r_max": f"{r_max:g}", "mode": mode.label(),
             "shaped_reward": theory.canonical_shaping(
                 args.k, r_max, args.d_near, args.d_far, mode)}
            for r_max in r_max_values for mode in modes]
    _write_csv(args.out, ["r_max", "mode", "shaped_reward"], rows)


def cmd_reproduce_table2(args):
    cells = evaluation.reproduce_table2()
    rows = []
    mismatches = 0
    for cell in cells:
        rows.append({
            "state": f"({cell.state[0]:g},{cell.state[1]:g})",
            "action": cell.action, "mode": cell.mode,
            "computed": f"{cell.computed:.2f}",
            "printed": "" if cell.printed is None else f"{cell.printed:.2f}",
            "match": "" if cell.match is None else str(cell.match).lower(),
        })
        if cell.match is False:
            mismatches += 1
    _write_csv(args.out, ["state", "action", "mode", "computed", "printed",
                          "match"], rows)
    if not args.out:
        print(f"# {mismatches} mismatching cell(s) against the reference "
              "(one documented reference slip expected)")


def cmd_two_flow_demo(args):
    _print_json(evaluation.two_flow_demo())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="adac", description=__doc__)
    parser.add_argument("--seed", type=int, default=_number(
        os.environ.get("ADAC_SEED", "0"), "ADAC_SEED", int))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("collect", help="roll out a behavior policy to JSONL")
    p.add_argument("--env", help="environment config JSON (default: two-flow)")
    _add_policy_args(p)
    _add_rollout_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("derive", help="derive the pessimistic MDP from a batch")
    p.add_argument("--batch", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--alpha", default="0.8", help="normalized threshold or 'inf'")
    p.add_argument("--gamma", type=float, default=0.99)
    p.add_argument("--penalty", default="adaptive",
                   help="none | fixed:C | adaptive")
    _add_metric_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("solve", help="solve a derived MDP by modified "
                       "policy iteration")
    p.add_argument("--mdp", required=True)
    p.add_argument("--tol", type=float, default=1e-8,
                   help="bound on the sup-norm error of the values")
    p.add_argument("--max-iters", type=int, default=200_000,
                   help="budget of sweeps, counting every full backup and "
                   "every policy-evaluation sweep; exit 2 when it runs out")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("eval", help="evaluate a policy in an environment")
    p.add_argument("--env")
    _add_policy_args(p)
    _add_eval_args(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep-c", help="fixed-cost grid plus adaptive row")
    p.add_argument("--batch", required=True)
    p.add_argument("--env")
    p.add_argument("--c-values", default="0,1,2,4,8")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--alpha", default="0.8")
    _add_metric_args(p)
    _add_eval_args(p)
    p.add_argument("--snapshot-dir")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep_c)

    p = sub.add_parser("sweep-k", help="neighbor-count sweep, adaptive mode")
    p.add_argument("--batch", required=True)
    p.add_argument("--env")
    p.add_argument("--k-values", default="2..10")
    p.add_argument("--alpha", default="0.8")
    _add_metric_args(p)
    _add_eval_args(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep_k)

    p = sub.add_parser("bounds", help="suboptimality-gap report")
    p.add_argument("--batch", required=True)
    p.add_argument("--mdp", required=True)
    p.add_argument("--solution", required=True)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--alpha")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("cover", help="greedy covering-number estimate")
    p.add_argument("--batch", required=True)
    p.add_argument("--alpha", required=True)
    _add_metric_args(p)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("shaping-sweep",
                       help="canonical-neighborhood shaping curves")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--r-max-values", default="1,2,3,4,5,6,7,8,9,10")
    p.add_argument("--d-near", type=float, default=0.5)
    p.add_argument("--d-far", type=float, default=0.5)
    p.add_argument("--c-values", default="0,1,2,4")
    p.add_argument("--out")
    p.set_defaults(func=cmd_shaping_sweep)

    p = sub.add_parser("reproduce-table2",
                       help="recompute the worked example's reward table")
    p.add_argument("--out")
    p.set_defaults(func=cmd_reproduce_table2)

    p = sub.add_parser("two-flow-demo",
                       help="cyclic vs derived policy on the two-flow env")
    p.set_defaults(func=cmd_two_flow_demo)

    return parser


def main(argv=None) -> int:
    try:
        # the parser reads ADAC_SEED, so building it can fail too
        args = build_parser().parse_args(argv)
        args.func(args)
    except SystemExit as exc:
        if exc.code in (0, None):
            return 0              # --help and friends
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BatchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
