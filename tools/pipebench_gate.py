#!/usr/bin/env python3
"""Performance gate: a pipebench A/B of two checkouts of this repository.

    tools/pipebench_gate.py BASE HEAD

Builds pipebench in both checkouts, then runs the benchmark command that
HEAD's BENCHMARK.json declares on every workload it lists, in PAIRS
alternating base/head pairs of RUN_SECONDS each. Every pair gets a fresh
seed (never 7177) and both sides of a pair run with it. Every run is
printed as it finishes. The gate fails when, on any workload,

  * the median over the pairs of head's change against base is worse than
    THRESHOLD on one of GATED (direction from BENCHMARK.json's "better"), or
  * head fails a larger share of its attempted ops than base, or
  * a run prints no result line.

Exit status: 0 pass, 1 fail, 2 when a checkout cannot be built or read.
"""

import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

PAIRS = 3
RUN_SECONDS = 10
THRESHOLD = 0.07
GATED = ("result_s", "events_per_s", "peak_heap_mb")
# The seed the benchmark itself is judged on; the gate never tunes to it.
RESERVED_SEED = 7177

SIDES = ("base", "head")


def run_order(pair):
    """Base first on odd pairs, head first on even ones, so a drift of the
    host's speed over the pairs does not land on one side only."""
    return SIDES if pair % 2 == 1 else SIDES[::-1]


def fresh_seed(rng):
    while True:
        seed = rng.randrange(1, 2**31)
        if seed != RESERVED_SEED:
            return seed


def worse_by(base, head, better):
    """Head's change against base, positive when head is worse."""
    change = (head - base) / base
    return change if better == "lower" else -change


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 1.0


def verdict(runs, better):
    """Reasons the gate fails; an empty list is a pass.

    `runs` holds one dict per run: "workload", "pair", "side" ("base" or
    "head") and "result", the run's parsed last stdout line, or None when
    the run printed none. A result that lacks a GATED metric counts as
    none. `better` maps each GATED metric to "lower" or
    "higher"."""
    reasons = []
    workloads = sorted({run["workload"] for run in runs})
    for workload in workloads:
        mine = [run for run in runs if run["workload"] == workload]
        missing = [run for run in mine if run["result"] is None or any(
            name not in run["result"]["metrics"] for name in GATED)]
        for run in missing:
            reasons.append(f"{workload}: {run['side']} run of pair "
                           f"{run['pair']} printed no result line")
        if missing:
            continue
        pairs = {}
        for run in mine:
            pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]
        for name in GATED:
            changes = [worse_by(p["base"]["metrics"][name]["value"],
                                p["head"]["metrics"][name]["value"],
                                better[name])
                       for p in pairs.values()]
            change = statistics.median(changes)
            if change > THRESHOLD:
                reasons.append(f"{workload}: {name} is {change:+.1%} worse "
                               f"in the median pair (threshold "
                               f"{THRESHOLD:.0%})")
        shares = {side: failed_share([p[side] for p in pairs.values()])
                  for side in SIDES}
        if shares["head"] > shares["base"]:
            reasons.append(f"{workload}: head failed {shares['head']:.1%} "
                           f"of its ops, base {shares['base']:.1%}")
    return reasons


def build(checkout):
    """Builds pipebench with the checkout's own run.py, outside the timed
    pairs; False when that fails."""
    code = ("import sys; sys.path.insert(0, 'pipebench'); import run; "
            "sys.exit(0 if run.build() else 1)")
    return subprocess.run([sys.executable, "-c", code], cwd=checkout,
                          stdout=sys.stderr).returncode == 0


def last_result(stdout):
    """The result line: the last stdout line, if it parses as one."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def run_once(command, checkout, workload, seed):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(RUN_SECONDS), "--trace", "0"]
    try:
        proc = subprocess.run(args, cwd=checkout, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_SECONDS + 600)
    except subprocess.TimeoutExpired:
        print(f"gate: {workload} run in {checkout} timed out", flush=True)
        return None, None
    result = last_result(proc.stdout)
    if result is None:
        print(proc.stderr[-2000:], end="", flush=True)
    stamp = None
    for line in proc.stdout.splitlines():
        if line.startswith('{"stamp"'):
            stamp = json.loads(line)["stamp"]
    return result, stamp


def describe(run, elapsed_s):
    head = (f"{run['workload']} pair {run['pair']} seed {run['seed']} "
            f"{run['side']:4s}")
    result = run["result"]
    if result is None:
        return f"{head} NO RESULT ({elapsed_s:.1f} s)"
    values = " ".join(f"{name}={m['value']:.6g}"
                      for name, m in sorted(result["metrics"].items()))
    return (f"{head} failed={result['failed']}/{result['attempted']} "
            f"{values} ({elapsed_s:.1f} s)")


def main(argv):
    if len(argv) != 3:
        print("usage: tools/pipebench_gate.py BASE HEAD", file=sys.stderr)
        return 2
    checkouts = dict(zip(SIDES, (Path(p).resolve() for p in argv[1:])))
    try:
        declared = json.loads((checkouts["head"] / "BENCHMARK.json")
                              .read_text())
    except (OSError, ValueError) as err:
        print(f"gate: cannot read HEAD's BENCHMARK.json: {err}",
              file=sys.stderr)
        return 2
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    workloads = [w["name"] for w in declared["workloads"]]
    for side, checkout in checkouts.items():
        if not build(checkout):
            print(f"gate: building pipebench in {side} ({checkout}) failed",
                  file=sys.stderr)
            return 2

    print(f"gate: {PAIRS} pairs of {RUN_SECONDS} s runs per workload, "
          f"threshold {THRESHOLD:.0%} on {', '.join(GATED)}", flush=True)
    rng = random.SystemRandom()
    runs = []
    stamped = set()
    for workload in workloads:
        for pair in range(1, PAIRS + 1):
            seed = fresh_seed(rng)
            for side in run_order(pair):
                start = time.monotonic()
                result, stamp = run_once(declared["command"],
                                         checkouts[side], workload, seed)
                run = {"workload": workload, "pair": pair, "side": side,
                       "seed": seed, "result": result}
                runs.append(run)
                if stamp and side not in stamped:
                    stamped.add(side)
                    print(f"gate: {side} stamp {json.dumps(stamp)}")
                print(describe(run, time.monotonic() - start), flush=True)

    reasons = verdict(runs, better)
    for reason in reasons:
        print(f"gate: FAIL {reason}")
    print("gate: PASS" if not reasons else "gate: FAIL")
    return 1 if reasons else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
