"""Run workloads repeatedly on one commit and report how steady they are.

    python3 bench/steady.py [--workloads a,b] [--runs 10] [--seed 1]
                            [--sets 1|2] [--seconds S]

Each run is `python3 bench/run.py --workload W --seed N --seconds S
--trace 0`, one after another, with seeds --seed, --seed+1, ...; a second
set continues the seed sequence, so it re-checks the first set on seeds
it did not see.  For every workload and end-to-end metric it prints the
median and quartiles and the spread (q3 - q1) / median against the
metric's bound in BENCHMARK.json, then each run's attempted and failed
calls.  With --sets 2 it also says whether the two sets' medians agree
within the bounds and whether the share of failed calls is the same.
Run it from the root of a checkout; it exits 1 when a run fails, a
spread passes its bound or the sets disagree.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_spec():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return spec, {m["name"]: m for m in spec["end_to_end"]}


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise SystemExit("run failed: %s" % " ".join(cmd))
    out = json.loads(lines[-1])
    out["seed"] = seed
    return out


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2


def worse_by(metric, old, new):
    """Share by which new is worse than old (negative: better)."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def report(name, runs, metrics):
    ok = True
    print("== %s: %d runs" % (name, len(runs)))
    for mname, m in metrics.items():
        values = [r["metrics"][mname]["value"] for r in runs]
        if len(values) < 4:       # too few runs for quartiles
            print("  %-12s %-3s %s" % (mname, m["unit"], "  ".join(
                "%.6g" % v for v in values)))
            continue
        med, q1, q3, spread = summary(values)
        flag = "" if spread <= m["bound"] else " WIDE"
        ok = ok and not flag
        print("  %-12s %-3s median %12.6g  q1 %12.6g  q3 %12.6g  "
              "spread %6.2f%%  bound %4.0f%%%s"
              % (mname, m["unit"], med, q1, q3, 100 * spread,
                 100 * m["bound"], flag))
    for r in runs:
        print("  seed %-6d correct %-5s attempted %6d  failed %5d"
              % (r["seed"], r["correct"], r["attempted"], r["failed"]))
        ok = ok and r["correct"]
    return ok


def compare(name, old, new, metrics):
    ok = True
    print("== %s: later set against earlier set" % name)
    for mname, m in metrics.items():
        a = statistics.median([r["metrics"][mname]["value"] for r in old])
        b = statistics.median([r["metrics"][mname]["value"] for r in new])
        w = worse_by(m, a, b)
        flag = "" if w <= m["bound"] else " WORSE"
        ok = ok and not flag
        print("  %-12s median %12.6g -> %12.6g  worse by %6.2f%%  "
              "bound %4.0f%%%s" % (mname, a, b, 100 * w, 100 * m["bound"],
                                   flag))
    shares = {(r["failed"], r["attempted"]) for r in old + new}
    same = len({f / a for f, a in shares}) == 1
    print("  failed share %s" % ("the same in every run" if same else
                                 "DIFFERS: %s" % sorted(shares)))
    return ok and same


def main():
    spec, metrics = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--sets", type=int, choices=(1, 2), default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args()
    chosen = args.workloads.split(",")
    for w in chosen:
        if w not in names:
            p.error("unknown workload %r; have %s" % (w, ", ".join(names)))
    if args.runs < 1 or (args.sets == 2 and args.runs < 4):
        p.error("--runs must be positive, and 4 or more with --sets 2")

    sets = []
    for i in range(args.sets):
        results = {}
        for w in chosen:
            results[w] = [one_run(w, args.seed + i * args.runs + j,
                                  args.seconds) for j in range(args.runs)]
        sets.append(results)
    ok = True
    for results in sets:
        for w in chosen:
            ok = report(w, results[w], metrics) and ok
    if args.sets == 2:
        for w in chosen:
            ok = compare(w, sets[0][w], sets[1][w], metrics) and ok
    print("STEADY" if ok else "NOT STEADY")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
