"""Workload inputs, calls and checks.

A workload is built from a seed (its inputs) and runs rounds: one round
makes every call of the workload once, each on fresh library objects
built from the generated inputs, so no round profits from a cache an
earlier round filled.  Every call's result is checked against values
from bench/reference.py and tests/oracles.py, computed apart from the
library; a call that raises or returns a wrong value is a failed call.
"""

import functools
import operator
import random
import statistics
import time
from math import comb

import reference as ref


class Recorder:
    """Times calls, checks their results and counts failures."""

    def __init__(self):
        self.rounds = []          # per round, the latency of each call
        self.attempted = 0
        self.failed = 0
        self.unexpected = []      # failures that are not known faults
        self.samples = {}         # call name -> (a passing result, check)

    def new_round(self):
        self.rounds.append([])

    def call_means(self):
        """Each call's mean latency over the rounds, one value per call of
        a round.  Shared machines change speed (by up to 1.6x within
        seconds on the 2-CPU machine of the reference figures); a mean over
        the whole run follows the share of time spent slow, where a
        quantile of single calls jumps between the two speeds."""
        if len({len(r) for r in self.rounds}) != 1:
            return [dt for r in self.rounds for dt in r]
        return [statistics.fmean(col) for col in zip(*self.rounds)]

    def call(self, name, fn, check, known_fault=False):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result, error = fn(), None
        except Exception as ex:   # a library error fails this call only
            result, error = None, "%s: %s" % (type(ex).__name__, ex)
        self.rounds[-1].append(time.perf_counter() - t0)
        if error is None:
            error = run_check(check, result)
        if error:
            self.failed += 1
            if not known_fault:
                self.unexpected.append("%s: %s" % (name, error))
            return None
        self.samples.setdefault(name, (result, check))
        return result

    def self_check(self, cf):
        """Feed a planted wrong copy of one passing result per call name
        through that call's check; return the names whose check missed it."""
        return [name for name, (result, check) in sorted(self.samples.items())
                if not run_check(check, planted(cf, result))]


def run_check(check, result):
    try:
        return check(result)
    except Exception as ex:       # a result the check cannot read is wrong
        return "check raised %s: %s" % (type(ex).__name__, ex)


def planted(cf, v):
    """A deliberately wrong copy of a call result."""
    if isinstance(v, bool):
        return not v
    if isinstance(v, int):
        return v + 1
    if isinstance(v, str):
        return v + "?"
    if v is None:
        return []
    if isinstance(v, tuple):
        return (planted(cf, v[0]),) + v[1:]
    if isinstance(v, list):
        return [planted(cf, v[0])] + v[1:] if v else ["?"]
    if isinstance(v, cf.Matroid):
        a, r = v.zee[-1]
        return cf.Matroid(v.ground, v.zee[:-1] + ((a, r + 1),))
    if isinstance(v, cf.ConnectivityResult):
        return cf.ConnectivityResult((v.value or 0) + 1, v.witness)
    if isinstance(v, cf.TuttePolynomial):
        coeffs = dict(v.coeffs)
        coeffs[(1, 0)] = coeffs.get((1, 0), 0) + 1
        return cf.TuttePolynomial(coeffs)
    if isinstance(v, cf.BranchDecomposition):
        return cf.BranchDecomposition(v.vertices, v.edges,
                                      dict(list(v.leaf_labels.items())[1:]))
    if hasattr(v, "planted"):
        return v.planted(cf)
    raise TypeError("no planted value for %s" % type(v).__name__)


def bump_first_int(v):
    """A copy of a JSON value with its first integer, depth first, plus
    one; returns (copy, whether there was one)."""
    if isinstance(v, bool):
        return v, False
    if isinstance(v, int):
        return v + 1, True
    if isinstance(v, (list, dict)):
        items = list(v.items()) if isinstance(v, dict) else list(enumerate(v))
        out, found = [], False
        for k, x in items:
            if not found:
                x, found = bump_first_int(x)
            out.append((k, x))
        if isinstance(v, dict):
            return dict(out), found
        return [x for _, x in out], found
    return v, False


def labels_of(labels, mask):
    return [labels[i] for i in ref.bits(mask)]


def flats_error(M, labels, flats):
    """None when M has exactly these labels and cyclic flats."""
    if list(M.ground.labels) != list(labels):
        return "ground %s, expected %s" % (list(M.ground.labels)[:6],
                                          list(labels)[:6])
    got = ref.label_flats(labels, M.zee)
    want = ref.label_flats(labels, flats)
    if got != want:
        return "%d cyclic flats differ from the %d expected" % (
            len(got ^ want), len(want))
    return None


def mismatch(what, got, want):
    return None if got == want else "%s %r, expected %r" % (what, got, want)


class Base:
    """A generated matroid: labels and (mask, rank) cyclic flats, with
    reference values computed on first use."""

    def __init__(self, labels, flats):
        self.labels = list(labels)
        self.flats = list(flats)
        self.n = len(self.labels)
        self.full = (1 << self.n) - 1
        self.r = ref.flat_rank(self.flats, self.full)
        self._memo = {}

    def memo(self, key, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    def flat_input(self):
        return [(set(labels_of(self.labels, a)), r) for a, r in self.flats]

    def json_dict(self):
        return {"elements": self.labels,
                "cyclic_flats": [{"set": labels_of(self.labels, a),
                                  "rank": r} for a, r in self.flats]}

    def raw(self, cf):
        """The matroid as a library object built without validation, for
        tests/oracles.py, which reads only the flats."""
        return self.memo("raw", lambda: cf.Matroid(cf.GroundSet(self.labels),
                                                   self.flats))

    def rank_table(self, cf, oracles):
        return self.memo("rank", lambda: oracles.rank_table_oracle(
            self.raw(cf)))

    def bw(self, cf, oracles):
        """Branch-width: tree enumeration up to 7 elements, else the
        reference subset recursion."""
        def value():
            if self.n <= 7:
                return oracles.bw_oracle(self.raw(cf))
            return ref.bw_dp(self.n, oracles.lambda_oracle(self.raw(cf)))
        return self.memo("bw", value)

    def expansion(self, t):
        """Count vectors of M^t.  Not kept: they grow as (t+1)^n, and a
        run's peak memory should be the library's; callers keep only the
        values they derive."""
        return ref.CountVectors(self.n, self.flats, t)


def random_base(rng, n, r, k):
    """A seeded matroid on n elements of rank r with k cyclic flats: a
    transversal matroid of 2-4 random sets, dualized half the time, redrawn
    until it has that shape and no loops or coloops.  Fixing the shape
    keeps the cost of every seed's instance alike."""
    labels = [str(i + 1) for i in range(n)]
    full = (1 << n) - 1
    while True:
        sets = [rng.getrandbits(n) for _ in range(rng.randint(2, 4))]
        dual = rng.random() < 0.5
        rank = ref.transversal_rank(sets, full)
        if rank != (n - r if dual else r):
            continue
        # loops lie in no set; a coloop leaves the matching short.  Either
        # kind, in the transversal matroid or its dual, rejects the draw,
        # so test them before the 2^n cyclic-flat computation.
        if functools.reduce(operator.or_, sets) != full or any(
                ref.transversal_rank(sets, full & ~(1 << e)) < rank
                for e in range(n)):
            continue
        flats = ref.transversal_flats(n, sets)
        if dual:
            flats = ref.dual_flats(n, flats)
        b = Base(labels, flats)
        least = min(flats, key=lambda ar: ar[1])[0]
        top = 0
        for a, _ in flats:
            top |= a
        if least == 0 and top == b.full and (b.r, len(flats)) == (r, k):
            return b


def catalog_base(cf, name):
    M = cf.catalog.get(name)
    return Base(M.ground.labels, M.zee)


def warm_up(cf):
    """One call of every traced library function on fig1_N."""
    d = cf.catalog.get("fig1_N").to_json_dict()
    M = cf.from_json_dict(d)
    M.rank(M.ground.full)
    M.dual()
    M.delete(1)
    M.contract(2)
    M.components()
    M.connected_flats()
    Mt, _ = cf.expand(M, 2)
    cf.deflate(Mt, 2)
    P = cf.catalog.presentation("fig1_M")
    U = cf.presentation_matroid(P)
    members = [cf.presentation_matroid(cf.Presentation(P.ground, (a,)))
               for a in P.sets]
    cf.expand_via_union(U, members, 2)
    cf.tutte_connectivity(M)
    cf.vertical_connectivity(M)
    cf.flats_cover(M, 2, 1)
    cf.tutte_polynomial(M)
    w, D = cf.branch_width_exact(M)
    cf.decomposition_width(M, D)
    cf.verify_tangle(M, cf.Tangle(order=w, members=cf.rank_bounded_family(
        M, w - 1)))
    order, _ = cf.positroid_search(M)
    cf.is_positroid_order(M, order)


# -- expansions ---------------------------------------------------------------

class Expansions:
    """Catalog matroids and seeded random bases with their t-expansions:
    clone-rich inputs with narrow lattices."""

    CATALOG_T2 = ("fig1_M", "fig1_N", "fig2_M", "fig2_N", "fig3_M",
                  "fig3_N")
    CATALOG_T3 = ("fig1_M", "fig1_N", "fig3_M")
    # random bases (n, r, cyclic flats): expansions of 10-14 and 12-18
    RANDOM_T2 = ((5, 3, 3), (6, 3, 3), (6, 4, 3), (7, 4, 4))
    RANDOM_T3 = ((4, 2, 3), (4, 2, 3), (5, 3, 3), (6, 3, 3))
    EXACT_BW = 14                   # largest expansion given exact bw

    def __init__(self, cf, oracles, seed):
        self.cf, self.oracles = cf, oracles
        rng = random.Random("expansions:%d" % seed)
        self.instances = (
            [(catalog_base(cf, nm), 2) for nm in self.CATALOG_T2] +
            [(catalog_base(cf, nm), 3) for nm in self.CATALOG_T3] +
            [(random_base(rng, *shape), 2) for shape in self.RANDOM_T2] +
            [(random_base(rng, *shape), 3) for shape in self.RANDOM_T3])

    def first_input(self):
        return self.instances[0][0].json_dict()

    def round(self, rec):
        for base, t in self.instances:
            self.instance(rec, base, t)

    def instance(self, rec, base, t):
        cf, oracles = self.cf, self.oracles
        raw = base.raw(cf)
        exp_labels = ref.blowup_labels(base.labels, t)
        exp_flats = ref.blowup_flats(base.n, base.flats, t)
        N = base.n * t

        M = rec.call("validate",
                     lambda: cf.validate_axioms(base.flat_input(),
                                                base.labels),
                     lambda M: flats_error(M, base.labels, base.flats))
        if M is None:
            return
        got = rec.call("expand", lambda: cf.expand(M, t),
                       lambda res: flats_error(res[0], exp_labels, exp_flats)
                       or mismatch("map t", res[1].t, t))
        if got is None:
            return
        Mt, emap = got

        def check_tau(res):
            want = base.memo(("tau", t), lambda: base.expansion(
                t).connectivity(False))
            tau = base.memo("tau", lambda: oracles.tau_oracle(raw))
            if tau is not None and want != t * (tau - 1) + 1:
                return "count vectors break tau scaling"
            return mismatch("tau", res.value, want)

        def check_kappa(res):
            want = base.memo(("kappa", t), lambda: base.expansion(
                t).connectivity(True))
            kappa = base.memo("kappa", lambda: oracles.kappa_oracle(raw))
            if kappa < base.r and want != t * (kappa - 1) + 1:
                return "count vectors break kappa scaling"
            return mismatch("kappa", res.value, want)

        def check_tutte(res):
            return (mismatch("T(2,2)", res.evaluate(2, 2), 1 << N) or
                    mismatch("Tutte coefficients", res.coeffs,
                             base.memo(("tutte", t), lambda: base.expansion(
                                 t).tutte())))

        rec.call("tau", lambda: cf.tutte_connectivity(Mt), check_tau)
        rec.call("kappa", lambda: cf.vertical_connectivity(Mt), check_kappa)
        rec.call("tutte", lambda: cf.tutte_polynomial(Mt), check_tutte)

        bw = base.bw(cf, oracles)

        def check_bw_base(res):
            rank = lambda x: ref.flat_rank(base.flats, x)  # noqa: E731
            return (mismatch("bw", res[0], bw) or
                    mismatch("width of the returned tree",
                             ref.tree_width(res[1].edges, res[1].leaf_labels,
                                            base.labels, rank), bw))

        got = rec.call("bw_base", lambda: cf.branch_width_exact(M),
                       check_bw_base)
        if got is None:
            return
        bound = t * (bw - 1) + 1

        def width(D):
            return ref.tree_width(D.edges, D.leaf_labels, exp_labels,
                                  lambda x: ref.flat_rank(exp_flats, x))

        Dt = rec.call("expand_decomposition",
                      lambda: cf.expand_decomposition(got[1], emap),
                      lambda D: mismatch("expanded width", width(D), bound))
        if Dt is None:
            return
        rec.call("decomposition_width",
                 lambda: cf.decomposition_width(Mt, Dt),
                 lambda w: mismatch("width", w, width(Dt)))

        tangle_ok = base.memo(("tangle", t), lambda: base.expansion(
            t).rank_tangle_ok(bound, bound - 1))
        rec.call("verify_tangle",
                 lambda: cf.verify_tangle(Mt, cf.Tangle(
                     order=bound,
                     members=cf.rank_bounded_family(Mt, bound - 1))),
                 lambda res: mismatch("tangle verdict", res[0], tangle_ok))
        if N > self.EXACT_BW:
            return

        def check_bw(res):
            value = res[0]
            if value > bound:
                return "bw %d breaks bw(M^t) <= %d" % (value, bound)
            if tangle_ok and value < bound:
                return "bw %d is below a verified tangle of order %d" % (
                    value, bound)
            if t == 3:
                cover = base.memo("cover3", lambda: ref.three_flat_cover(
                    base.n, base.rank_table(cf, oracles), 2))
                if cover != (value <= 3 * base.r):
                    return "three-flat cover %s but bw %d vs r %d" % (
                        cover, value, 3 * base.r)
            return mismatch("width of the returned tree", width(res[1]),
                            value)

        rec.call("bw", lambda: cf.branch_width_exact(Mt), check_bw)


# -- paving -------------------------------------------------------------------

class Paving:
    """Seeded clone-free sparse paving matroids: wide lattices, no clones."""

    # (n, r, circuit-hyperplanes); every slot has n >= 3r + 3, where
    # bw = r + 1 and the rank-below-r sets form a tangle of order r + 1.
    SLOTS = ((12, 3, 12), (13, 3, 15), (14, 3, 18), (15, 4, 40),
             (16, 3, 24), (17, 4, 45), (18, 4, 60))
    EXACT_BW = 14

    def __init__(self, cf, oracles, seed):
        self.cf = cf
        rng = random.Random("paving:%d" % seed)
        self.instances = []
        for n, r, k in self.SLOTS:
            chs = ref.sparse_paving(rng, n, r, k)
            b = Base([str(i + 1) for i in range(n)],
                     ref.paving_flats(n, r, chs))
            self.instances.append((b, r, chs))

    def first_input(self):
        return self.instances[0][0].json_dict()

    def round(self, rec):
        for base, r, chs in self.instances:
            self.instance(rec, base, r, chs)

    def instance(self, rec, base, r, chs):
        cf = self.cf
        n, K = base.n, len(chs)
        chset = set(chs)
        doc = base.json_dict()
        M = rec.call("from_json_dict", lambda: cf.from_json_dict(doc),
                     lambda M: flats_error(M, base.labels, base.flats))
        if M is None:
            return
        rec.call("dual", lambda: M.dual(),
                 lambda D: flats_error(D, base.labels,
                                       ref.dual_flats(n, base.flats)))
        rec.call("tau", lambda: cf.tutte_connectivity(M),
                 lambda res: mismatch("tau", res.value, base.memo(
                     "tau", lambda: ref.paving_connectivity(n, r, chs,
                                                            False))))
        rec.call("kappa", lambda: cf.vertical_connectivity(M),
                 lambda res: mismatch("kappa", res.value, base.memo(
                     "kappa", lambda: ref.paving_connectivity(n, r, chs,
                                                              True))))

        def check_tutte(res):
            return (mismatch("T(1,1)", res.evaluate(1, 1), comb(n, r) - K) or
                    mismatch("T(2,2)", res.evaluate(2, 2), 1 << n) or
                    mismatch("Tutte coefficients", res.coeffs, base.memo(
                        "tutte", lambda: ref.paving_tutte(n, r, K))))

        rec.call("tutte", lambda: cf.tutte_polynomial(M), check_tutte)
        rank = lambda x: ref.paving_rank(r, chset, x)  # noqa: E731
        if n <= self.EXACT_BW:
            rec.call("bw", lambda: cf.branch_width_exact(M),
                     lambda res: mismatch("bw", res[0], r + 1) or mismatch(
                         "width of the returned tree", ref.tree_width(
                             res[1].edges, res[1].leaf_labels, base.labels,
                             rank), res[0]))
        rec.call("verify_tangle",
                 lambda: cf.verify_tangle(M, cf.Tangle(
                     order=r + 1, members=cf.rank_bounded_family(M, r))),
                 lambda res: mismatch("tangle verdict", res, (True, None)))

        slack = n - 2 * r
        disjoint = base.memo("disjoint", lambda: any(
            a & b == 0 for i, a in enumerate(chs) for b in chs[i + 1:]))

        def check_cover(res):
            if (res is not None) != disjoint:
                return "cover found: %s, two disjoint circuit-hyperplanes: " \
                       "%s" % (res is not None, disjoint)
            if res is None:
                return None
            masks = [ref.mask_of(base.labels, f) for f in res]
            union = 0
            for m in masks:
                union |= m
                if not ref.paving_is_proper_flat(r, chset, m):
                    return "%s is not a proper flat" % sorted(
                        labels_of(base.labels, m))
            if len(masks) > 2 or ref.popcount(base.full & ~union) > slack:
                return "witness does not cover all but %d" % slack
            return None

        rec.call("flats_cover", lambda: cf.flats_cover(M, 2, slack),
                 check_cover)


# -- minors -------------------------------------------------------------------

class Minors:
    """Construction-heavy calls: minors, duals, deflation, transversal
    unions and positroid orders."""

    # (n, r, cyclic flats, t): M^t of 12-18 elements
    EXPANSIONS = ((6, 3, 3, 2), (7, 4, 4, 2), (8, 4, 4, 2), (9, 5, 4, 2),
                  (5, 3, 3, 3), (6, 3, 3, 3))
    PRESENTATIONS = ((6, 3), (7, 4), (8, 4), (8, 5))
    POSITROIDS = ((6, 3, 3), (6, 4, 3), (7, 3, 3), (7, 4, 4))
    SAMPLES = 24                  # rank samples per minor check

    def __init__(self, cf, oracles, seed):
        self.cf, self.oracles = cf, oracles
        rng = random.Random("minors:%d" % seed)
        self.expansions = []
        for n, r, k, t in self.EXPANSIONS:
            base = random_base(rng, n, r, k)
            g = rng.sample(range(n * t), 9)
            mask = lambda idx: sum(1 << i for i in idx)  # noqa: E731
            # (delete, contract): delete 2, contract 3, delete 2 and
            # contract 2, so N-2, N-3 and N-4 elements survive
            picks = [(mask(g[:2]), 0), (0, mask(g[2:5])),
                     (mask(g[5:7]), mask(g[7:]))]
            self.expansions.append((base, t, picks, rng.getrandbits(32)))
        self.presentations = []
        for n, k in self.PRESENTATIONS:
            sets = [rng.getrandbits(n) for _ in range(k)]
            self.presentations.append(
                (Base([str(i + 1) for i in range(n)],
                      ref.transversal_flats(n, sets)), sets))
        self.positroids = [random_base(rng, *shape)
                           for shape in self.POSITROIDS]

    def first_input(self):
        return self.expansions[0][0].json_dict()

    def round(self, rec):
        for base, t, picks, salt in self.expansions:
            self.minors(rec, base, t, picks, salt)
        for base, sets in self.presentations:
            self.union(rec, base, sets)
        for base in self.positroids:
            self.positroid(rec, base)

    def minors(self, rec, base, t, picks, salt):
        cf = self.cf
        labels = ref.blowup_labels(base.labels, t)
        flats = ref.blowup_flats(base.n, base.flats, t)
        N = len(labels)
        M = rec.call("validate",
                     lambda: cf.validate_axioms(base.flat_input(),
                                                base.labels),
                     lambda M: flats_error(M, base.labels, base.flats))
        if M is None:
            return
        got = rec.call("expand", lambda: cf.expand(M, t),
                       lambda res: flats_error(res[0], labels, flats))
        if got is None:
            return
        Mt = got[0]
        rec.call("dual", lambda: Mt.dual(),
                 lambda D: flats_error(D, labels, ref.dual_flats(N, flats)))

        rec.call("deflate", lambda: cf.deflate(Mt, t),
                 lambda D: flats_error(D, *base.memo(
                     ("deflated", t), lambda: ref.deflated(labels, flats,
                                                           t))))

        for d, c in picks:
            keep = [i for i in range(N) if not (d | c) >> i & 1]

            def check(res, d=d, c=c, keep=keep):
                err = mismatch("minor ground", list(res.ground.labels),
                               [labels[i] for i in keep])
                if err:
                    return err
                rng = random.Random(salt ^ d ^ (c << 1))
                m = len(keep)
                ys = [0, (1 << m) - 1] + [rng.getrandbits(m)
                                          for _ in range(self.SAMPLES)]
                base_c = ref.flat_rank(flats, c)
                for y in ys:
                    big = sum(1 << keep[j] for j in ref.bits(y))
                    want = ref.flat_rank(flats, big | c) - base_c
                    if ref.flat_rank(res.zee, y) != want:
                        return "minor rank of %s is %d, expected %d" % (
                            labels_of(res.ground.labels, y),
                            ref.flat_rank(res.zee, y), want)
                return None

            if c == 0:
                rec.call("delete", lambda d=d: Mt.delete(d), check)
            elif d == 0:
                rec.call("contract", lambda c=c: Mt.contract(c), check)
            else:
                rec.call("minor", lambda d=d, c=c: Mt.minor(d, c), check)

    def union(self, rec, base, sets):
        cf = self.cf
        ground = cf.GroundSet(base.labels)
        P = cf.Presentation(ground, tuple(sets))
        M = rec.call("presentation_matroid",
                     lambda: cf.presentation_matroid(P),
                     lambda M: flats_error(M, base.labels, base.flats))
        if M is None:
            return
        full = base.full

        def rank1(a):
            if a == 0:
                return [(full, 0)]
            if ref.popcount(a) == 1:
                return [(full & ~a, 0)]
            return [(full & ~a, 0), (full, 1)]

        def check_members(ms):
            if len(ms) != len(sets):
                return "%d members for %d sets" % (len(ms), len(sets))
            for Mi, a in zip(ms, sets):
                err = flats_error(Mi, base.labels, rank1(a))
                if err:
                    return err
            return None

        members = rec.call(
            "rank1_members",
            lambda: [cf.validate_axioms(rank1(a), ground) for a in sets],
            check_members)
        if members is None:
            return
        rec.call("expand_via_union",
                 lambda: cf.expand_via_union(M, members, 2),
                 lambda R: flats_error(R, ref.blowup_labels(base.labels, 2),
                                       ref.blowup_flats(base.n, base.flats,
                                                        2)))

    def positroid(self, rec, base):
        cf = self.cf
        M = rec.call("validate",
                     lambda: cf.validate_axioms(base.flat_input(),
                                                base.labels),
                     lambda M: flats_error(M, base.labels, base.flats))
        if M is None:
            return

        def expected():
            order, checked = ref.positroid_search(
                base.n, base.rank_table(cf, self.oracles))
            if order is not None:
                order = [base.labels[i] for i in order]
            return order, checked

        got = rec.call("positroid_search", lambda: cf.positroid_search(M),
                       lambda res: mismatch("order search", tuple(res),
                                            base.memo("positroid",
                                                      expected)))
        if got is None or got[0] is None:
            return
        order = got[0]
        labels = ref.blowup_labels(base.labels, 2)
        want = [lab if j == 0 else "%s#%d" % (lab, j)
                for lab in order for j in range(2)]
        rec.call("expansion_positroid_order",
                 lambda: cf.expansion_positroid_order(M, order, 2),
                 lambda res: mismatch("expanded order", res[0], want) or
                 flats_error(res[1], labels, ref.blowup_flats(
                     base.n, base.flats, 2)))


IN_PROCESS = {"expansions": Expansions, "paving": Paving, "minors": Minors}
