"""Run one benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a cycflats checkout: the library is imported from
./src and the independent oracles from ./tests/oracles.py.  Workloads
(see bench/README.md): expansions, paving, minors, cli.

With --trace 0 the run repeats whole rounds of the workload until
another round would pass --seconds and at least MIN_CALLS calls were
made, and reports the end-to-end metrics.  It sets up SETUPS times,
spread over the run, and setup_s is the median set-up.  With --trace 1
it sets up once under the per-layer tracer, runs one untraced and one
traced round and reports the per-layer metrics.  Either way every result
is checked; the last line of standard output is the JSON result.  Exit
code 2 means the run could not start (no library in this directory, bad
arguments).
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("expansions", "paving", "minors", "cli")
MIN_CALLS = 100      # at least ten calls beyond p90
SETUPS = 11
IMPORT_PY = ("import time; t = time.perf_counter(); import cycflats; "
             "print(time.perf_counter() - t)")


def die(message):
    print("bench: %s" % message, file=sys.stderr)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")
    return args


def load_library():
    """Import cycflats from ./src and tests/oracles.py."""
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "cycflats" / "__init__.py").is_file() or \
            not (tests / "oracles.py").is_file():
        die("no cycflats sources under %s (run from a checkout root)" % ROOT)
    sys.path[:0] = [str(HERE), str(src), str(tests)]
    import cycflats
    import oracles
    if Path(cycflats.__file__).resolve().parent != \
            (src / "cycflats").resolve():
        die("imported cycflats from %s, not from %s" % (cycflats.__file__,
                                                        src))
    return cycflats, oracles


def import_seconds():
    """`import cycflats` from ./src, timed in a fresh interpreter."""
    p = subprocess.run([sys.executable, "-c", IMPORT_PY], cwd=ROOT,
                       env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                       capture_output=True, text=True, timeout=120)
    if p.returncode != 0:
        die("import cycflats failed in a fresh interpreter:\n" + p.stderr)
    return float(p.stdout)


class Session:
    """One workload's inputs plus the way it makes calls."""

    def __init__(self, name, cf, oracles, seed, workdir, traced):
        from cli_workload import Cli, Runner
        from workloads import IN_PROCESS, warm_up
        self.name = name
        self.runner = Runner(ROOT / "src", workdir, traced)
        if name == "cli":
            self.wl = Cli(cf, oracles, seed, workdir)
            self.wl.warm_up(self.runner)
        else:
            self.wl = IN_PROCESS[name](cf, oracles, seed)
            warm_up(cf)

    def round(self, rec):
        rec.new_round()
        if self.name == "cli":
            self.wl.round(rec, self.runner)
        else:
            self.wl.round(rec)
        return sum(rec.rounds[-1])

    def cli_probe(self, workdir):
        """One cold traced `cycflats validate` on this workload's first
        input, so the cli layer shows in every workload's trace."""
        Path(workdir).mkdir(parents=True, exist_ok=True)
        path = Path(workdir) / "probe.json"
        path.write_text(json.dumps(self.wl.first_input()))
        before = dict(self.runner.stats)
        self.runner(["validate", "--input", path.name])
        # keep only the cli layer: library layers are this process's
        for key, value in list(self.runner.stats.items()):
            if not key.startswith("cli."):
                self.runner.stats[key] = before.get(key, 0.0)


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main():
    args = parse_args()
    hash_seed = str(args.seed % 2 ** 32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        # String hashing sets the iteration order of the library's sets and
        # dicts of labels, and with it the work done and the time taken
        # (about 10% of wall_s).  Deriving it from the seed keeps a run
        # reproducible while a set of seeds samples several orders.
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED=hash_seed))
    cf, oracles = load_library()
    from tracing import Tracer
    from workloads import Recorder

    workdir = ROOT / ".bench_work" / ("%s-%d" % (args.workload,
                                                 int(time.time() * 1e6)))
    tracer = Tracer() if args.trace else None
    rec = Recorder()

    def set_up():
        """Import in a fresh interpreter, then inputs and warm-up here;
        (session, seconds)."""
        import_s = import_seconds()
        shutil.rmtree(workdir, ignore_errors=True)
        t0 = time.perf_counter()
        session = Session(args.workload, cf, oracles, args.seed, workdir,
                          traced=bool(tracer))
        return session, import_s + time.perf_counter() - t0

    try:
        if tracer:
            tracer.install()
            session, _ = set_up()
            tracer.uninstall()
            session.runner.traced = False
            untraced = session.round(rec)
            tracer.install()
            session.runner.traced = True
            traced = session.round(rec)
            if args.workload != "cli":
                session.cli_probe(workdir)
            tracer.uninstall()
            metrics = tracer.metrics(dict(session.runner.stats, **{
                "trace.wall_s": traced, "trace.untraced_wall_s": untraced}))
        else:
            # Set-ups are spread over the run, one due every
            # seconds / SETUPS, so that their median sees the same spells
            # of a shared machine's speed as the rounds do.
            setups = []
            start = time.perf_counter()
            while True:
                due = len(setups) * args.seconds / SETUPS
                if len(setups) < SETUPS and time.perf_counter() - start >= due:
                    session, dt = set_up()
                    setups.append(dt)
                r0 = time.perf_counter()
                session.round(rec)
                last = time.perf_counter() - r0
                if rec.attempted >= MIN_CALLS and \
                        time.perf_counter() - start + last > args.seconds:
                    break
            while len(setups) < SETUPS:     # rounds longer than the spacing
                setups.append(set_up()[1])
            lat = rec.call_means()
            metrics = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.fmean(map(sum, rec.rounds)),
                "op_p50_ms": 1000 * statistics.median(lat),
                "op_p90_ms": 1000 * statistics.quantiles(lat, n=10)[8],
                "peak_rss_mb": peak_rss_mb(args.workload == "cli"),
            }
            units = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
                     "op_p90_ms": "ms", "peak_rss_mb": "MB"}
            metrics = {k: {"value": v, "unit": units[k]}
                       for k, v in metrics.items()}
            print("bench: %s seed %d: %d rounds, %d calls, %d set-ups"
                  % (args.workload, args.seed, len(rec.rounds),
                     rec.attempted, len(setups)),
                  file=sys.stderr)
        blind = rec.self_check(cf)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    for msg in rec.unexpected[:10]:
        print("bench: FAILED %s" % msg, file=sys.stderr)
    for name in blind:
        print("bench: self-check: the %s check passed a planted wrong value"
              % name, file=sys.stderr)
    if not rec.samples:
        print("bench: self-check: no call passed, nothing to plant",
              file=sys.stderr)
    print(json.dumps({"correct": not rec.unexpected and not blind and
                      bool(rec.samples),
                      "attempted": rec.attempted, "failed": rec.failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
