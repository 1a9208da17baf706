"""The cli workload: a fixed script of cold `cycflats` invocations.

Each command runs in a fresh interpreter (`python3 -m cycflats ...`, with
PYTHONPATH at the checkout's src), one at a time, in a work directory
inside the checkout that holds the seeded input files.  A traced command
runs through bench/tracing.py instead, which reports its import time,
in-process time and per-layer totals.
"""

import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import reference as ref
from workloads import (Base, bump_first_int, catalog_base, labels_of,
                       mismatch, random_base, warm_up)

TRACE_PY = str(Path(__file__).resolve().parent / "tracing.py")
USAGE = 64            # the README's exit code for usage errors


class CliResult:
    def __init__(self, code, payload):
        self.code = code
        self.payload = payload

    def planted(self, cf):
        payload, found = bump_first_int(self.payload)
        if found:
            return CliResult(self.code, payload)
        return CliResult(self.code + 1, self.payload)


class Runner:
    """Starts commands; while self.traced each one is traced and its
    per-layer totals are summed into self.stats."""

    def __init__(self, src, cwd, traced):
        self.cwd = cwd
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([self.env["PYTHONPATH"]]
                          if self.env.get("PYTHONPATH") else []))
        self.traced = traced
        self.stats = {}

    def __call__(self, args):
        if self.traced:
            out = Path(self.cwd) / "stats.json"
            cmd = [sys.executable, TRACE_PY, str(out)] + args
        else:
            cmd = [sys.executable, "-m", "cycflats"] + args
        t0 = time.perf_counter()
        p = subprocess.run(cmd, cwd=self.cwd, env=self.env,
                           capture_output=True, text=True, timeout=170)
        wall = time.perf_counter() - t0
        if self.traced:
            child = json.loads(out.read_text())
            out.unlink()
            child["cli.interpreter_s"] = wall - child.pop("cli.in_process_s")
            for key, value in child.items():
                self.stats[key] = self.stats.get(key, 0.0) + value
        try:
            payload = json.loads(p.stdout) if p.stdout.strip() else None
        except ValueError:
            payload = p.stdout
        return CliResult(p.returncode, payload)


def write_json(path, obj):
    Path(path).write_text(json.dumps(obj))


def payload_flats(payload):
    labels = payload["elements"]
    index = {lab: i for i, lab in enumerate(labels)}
    return labels, [(sum(1 << index[e] for e in f["set"]), f["rank"])
                    for f in payload["cyclic_flats"]]


def returned_flats_error(payload, labels, flats):
    got_labels, got = payload_flats(payload)
    if got_labels != list(labels):
        return "ground %s, expected %s" % (got_labels[:6], list(labels)[:6])
    if ref.label_flats(labels, got) != ref.label_flats(labels, flats):
        return "cyclic flats differ"
    return None


def caterpillar(labels):
    """A path-shaped branch decomposition with leaves in this order."""
    n = len(labels)
    spine = ["s%d" % i for i in range(n - 2)]
    leaves = ["l%d" % i for i in range(n)]
    edges = [[spine[i], spine[i + 1]] for i in range(n - 3)]
    edges += [[spine[0], leaves[0]], [spine[0], leaves[1]]]
    edges += [[spine[i - 1], leaves[i]] for i in range(2, n - 1)]
    edges += [[spine[-1], leaves[n - 1]]]
    return {"vertices": spine + leaves, "edges": edges,
            "leaf_labels": {lab: leaves[i] for i, lab in enumerate(labels)}}


class Cli:
    # the randomized suites run a few samples of their own default seed
    SUITES = (("figures",), ("tau",), ("kappa",), ("bw",), ("classes",),
              ("equivalences", "--trials", "2"),
              ("expansion-lemmas", "--trials", "4"))
    INSTANCE = re.compile(r"^(?:expand\((\w+),(\d+)\)|(\w+))$")

    def __init__(self, cf, oracles, seed, workdir):
        self.cf, self.oracles = cf, oracles
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        rng = random.Random("cli:%d" % seed)
        self.m = random_base(rng, 7, 4, 4)
        self.subset = [lab for lab in self.m.labels if rng.random() < 0.5]
        self.u = [Base([str(i + 1) for i in range(6)], ref.transversal_flats(
            6, [rng.getrandbits(6) for _ in range(rng.randint(1, 3))]))
            for _ in range(2)]
        self.p = random_base(rng, 7, 3, 3)
        self.sets = [rng.getrandbits(7) for _ in range(4)]
        self.tr = Base(self.m.labels, ref.transversal_flats(7, self.sets))
        self.order = list(self.m.labels)
        rng.shuffle(self.order)
        self.catalog = {}
        self._script = None
        m2 = Base(ref.blowup_labels(self.m.labels, 2),
                  ref.blowup_flats(self.m.n, self.m.flats, 2))
        for name, base in (("m", self.m), ("m2", m2), ("u1", self.u[0]),
                           ("u2", self.u[1]), ("p", self.p),
                           ("tr", self.tr)):
            write_json(self.workdir / ("%s.json" % name), base.json_dict())
        write_json(self.workdir / "tree.json", caterpillar(self.order))

    def first_input(self):
        return self.m.json_dict()

    def warm_up(self, run):
        warm_up(self.cf)
        run(["validate", "--catalog", "fig1_N"])

    def catalog_base(self, name):
        if name not in self.catalog:
            self.catalog[name] = catalog_base(self.cf, name)
        return self.catalog[name]

    def script(self):
        """(name, argv, check, known fault) for each command of a round."""
        cf, oracles, m = self.cf, self.oracles, self.m
        raw = m.raw(cf)
        cv = m.expansion(1)

        def ok(check):
            def wrapped(res):
                if res.code != 0 or not isinstance(res.payload, dict):
                    return "exit %d" % res.code
                return check(res.payload)
            return wrapped

        def usage(res):
            return mismatch("exit code", res.code, USAGE)

        def check_tutte(out):
            coeffs = {(t["x"], t["y"]): int(t["c"]) for t in out["terms"]}
            T = cf.TuttePolynomial(coeffs)
            for x, y in ((1, 1), (2, 1), (1, 2), (3, 2)):
                err = mismatch("T(%d,%d)" % (x, y), T.evaluate(x, y),
                               m.memo(("T", x, y), lambda: oracles.
                                      tutte_eval_oracle(raw, x, y)))
                if err:
                    return err
            return mismatch("Tutte coefficients", coeffs,
                            m.memo(("tutte", 1), cv.tutte))

        def connectivity(oracle):
            def check(out):
                value = None if out["value"] == "infinite" else out["value"]
                return mismatch("value", value, m.memo(oracle.__name__,
                                                       lambda: oracle(raw)))
            return check

        rank = lambda x: ref.flat_rank(m.flats, x)  # noqa: E731
        bw = m.bw(cf, oracles)

        def check_bw(out):
            D = out["decomposition"]
            return (mismatch("bw", out["value"], bw) or
                    mismatch("width of the returned tree", ref.tree_width(
                        D["edges"], D["leaf_labels"], m.labels, rank), bw))

        tree = caterpillar(self.order)
        width = ref.tree_width(tree["edges"], tree["leaf_labels"], m.labels,
                               rank)
        k = max(bw, 2)       # rank-lt:<c> needs c = k - 1 >= 1
        tangle = cv.rank_tangle_ok(k, k - 1)

        def check_certify(res):
            if not tangle:
                return (mismatch("exit code", res.code, 2) or
                        mismatch("certified", res.payload.get("certified"),
                                 False))
            if res.code != 0:
                return "exit %d" % res.code
            out = res.payload
            return (mismatch("bounds", out["bounds"], [k, width]) or
                    mismatch("exact", out["exact"], k == width) or
                    mismatch("value", out["value"],
                             width if k == width else None))

        def check_expand(out):
            return (returned_flats_error(out["matroid"], ref.blowup_labels(
                m.labels, 2), ref.blowup_flats(m.n, m.flats, 2)) or
                mismatch("map t", out["map"]["t"], 2))

        def check_union(out):
            labels, flats = payload_flats(out)
            if labels != self.u[0].labels:
                return "union ground %s" % labels
            members = [b.raw(cf) for b in self.u]
            for x in range(1 << len(labels)):
                want = oracles.union_rank_oracle(members, x)
                if ref.flat_rank(flats, x) != want:
                    return "union rank of %s is not %d" % (
                        labels_of(labels, x), want)
            return None

        def check_search(out):
            order, checked = self.p.memo("positroid", lambda: ref.
                                         positroid_search(7, self.p.
                                                          rank_table(
                                                              cf, oracles)))
            if order is not None:
                order = [self.p.labels[i] for i in order]
            return (mismatch("order", out["order"], order) or
                    mismatch("classes checked", out["classes_checked"],
                             checked))

        def check_presentation(out):
            return (mismatch("presents", out["presents"], True) or
                    mismatch("presented rank", out["presented_rank"],
                             self.tr.r) or
                    mismatch("target rank", out["target_rank"], self.tr.r))

        sets = "|".join(",".join(labels_of(self.tr.labels, a))
                        for a in self.sets)
        cmds = [
            ("validate", ["validate", "--input", "m.json"],
             ok(lambda out: mismatch("valid", out["valid"], True) or
                returned_flats_error(out["matroid"], m.labels, m.flats))),
            ("rank", ["rank", "--input", "m.json", "--set",
                      ",".join(self.subset)],
             ok(lambda out: mismatch("rank", out["rank"], m.rank_table(
                 cf, oracles)[ref.mask_of(m.labels, self.subset)]))),
            ("tutte", ["tutte", "--input", "m.json"], ok(check_tutte)),
            ("tau", ["tau", "--input", "m.json"],
             ok(connectivity(oracles.tau_oracle))),
            ("kappa", ["kappa", "m.json"],
             ok(connectivity(oracles.kappa_oracle))),
            ("bw_exact", ["bw", "--exact", "m.json"], ok(check_bw)),
            ("bw_certify", ["bw", "--certify", "m.json", "--upper",
                            "tree.json", "--lower",
                            "rank-lt:%d:%d" % (k - 1, k)], check_certify),
            ("expand", ["expand", "--input", "m.json", "--t", "2"],
             ok(check_expand)),
            ("deflate", ["deflate", "--input", "m2.json", "--t", "2"],
             ok(lambda out: returned_flats_error(
                 out["matroid"], *m.memo("deflated", lambda: ref.deflated(
                     ref.blowup_labels(m.labels, 2),
                     ref.blowup_flats(m.n, m.flats, 2), 2))))),
            ("union", ["union", "u1.json", "u2.json"], ok(check_union)),
            ("positroid_search", ["positroid-search", "p.json"],
             ok(check_search)),
            ("presentation_verify", ["presentation-verify", "tr.json",
                                     "--sets", sets],
             ok(check_presentation)),
        ]
        for suite in self.SUITES:
            cmds.append(("verify_" + suite[0], ["verify", "--suite"] +
                         list(suite), ok(self.check_suite)))
        # usage errors, exit code 64 by the README; each exits 1 for now
        cmds += [
            ("rank_unknown_element",
             ["rank", "--catalog", "fig1_N", "--set", "4,5,99"], usage, True),
            ("presentation_unknown_element",
             ["presentation-verify", "fig1_M", "--sets", "1,2,99"], usage,
             True),
            ("missing_input", ["tau", "--input", "missing.json"], usage,
             True),
        ]
        return [c if len(c) == 4 else c + (False,) for c in cmds]

    def check_suite(self, out):
        """Every check passed with expected == computed; tau, kappa and bw
        of catalog matroids and their expansions match the references."""
        checks = out["checks"]
        if not checks:
            return "suite ran no checks"
        for c in checks:
            if not c["passed"] or c["expected"] != c["computed"]:
                return "%s %s: expected %r, computed %r" % (
                    c["id"], c["instance"], c["expected"], c["computed"])
            hit = self.INSTANCE.match(c["instance"])
            if not hit:
                continue
            name = hit.group(1) or hit.group(3)
            if name not in self.cf.catalog.names():
                continue
            base = self.catalog_base(name)
            t = int(hit.group(2) or 1)
            if c["id"] in ("tau", "tau-scaling", "kappa", "kappa-scaling"):
                vertical = c["id"].startswith("kappa")
                want = base.memo(
                    ("kappa" if vertical else "tau", t),
                    lambda: base.expansion(t).connectivity(vertical))
            elif c["id"] == "bw-exact" and t == 1:
                want = base.bw(self.cf, self.oracles)
            else:
                continue
            if c["computed"] != want:
                return "%s %s: computed %r, reference %r" % (
                    c["id"], c["instance"], c["computed"], want)
        return None

    def round(self, rec, run):
        if self._script is None:
            self._script = self.script()
        for name, argv, check, fault in self._script:
            rec.call(name, lambda argv=argv: run(argv), check,
                     known_fault=fault)
