"""Benchmark entry point: run one adac workload and print its metrics.

    python3 bench/run.py --workload derive_30k --seed 7 --seconds 8 --trace 0

Run from the root of a source checkout; the workload imports adac from
`src/`. Each workload runs in a fresh single-threaded process
(bench/pipeline.py). With `--trace 0` the last line of standard output is
the JSON result with the end-to-end metrics. With `--trace 1` the untraced
run is followed by a traced run of the same length, and the last line
carries the per-layer metrics instead, including the tracing overhead.
Both runs leave their full results under bench/results/.
"""

import argparse
import json
import os
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
TIME_LIMIT_S = 175
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child(args, trace, out, deadline, rounds=None):
    src = os.path.join(os.getcwd(), "src")
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    cmd = [sys.executable, os.path.join(BENCH, "pipeline.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--out", out]
    if rounds is not None:
        cmd += ["--rounds", str(rounds)]
    subprocess.run(cmd, env=env, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    deadline = time.monotonic() + TIME_LIMIT_S
    parser = argparse.ArgumentParser(description="run one adac workload")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "adac", "__init__.py")):
        print("bench/run.py: run from the root of an adac checkout "
              "(no src/adac here)", file=sys.stderr)
        return 2
    results = os.path.join(BENCH, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}")
    try:
        result = child(args, 0, stem + ".json", deadline)
        if args.trace:
            traced = child(args, 1, stem + ".trace.json", deadline,
                           rounds=result["rounds"])
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"bench/run.py: workload failed: {exc}", file=sys.stderr)
        return 1

    for check in result["checks"]:
        if not check["ok"]:
            print(f"check failed: {check['name']}: {check['detail']}")
    for claim in result["quality"]:
        verdict = "holds" if claim["holds"] else "does NOT hold"
        print(f"quality {claim['name']} {verdict}: {claim['detail']}")
    if args.trace:
        overhead = 100.0 * (traced["timed_s"] / result["timed_s"] - 1.0)
        traced["per_layer"]["trace.overhead_pct"] = {"value": overhead,
                                                     "unit": "%"}
        with open(stem + ".trace.json", "w", encoding="utf-8") as fh:
            json.dump(traced, fh, indent=1)
        metrics = traced["per_layer"]
        correct = result["correct"] and traced["correct"]
        attempted, failed = traced["attempted"], traced["failed"]
    else:
        metrics = result["metrics"]
        correct = result["correct"]
        attempted, failed = result["attempted"], result["failed"]
    for name, m in metrics.items():
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{args.workload} {name} = {value} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
