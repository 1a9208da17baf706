"""One-shot verification suites: named batches of cross-checked claims.

Each suite recomputes a group of published values or theorem instances
from scratch and reports expected vs computed per check.  Randomized
suites are deterministic for a fixed seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from . import catalog
from .branchwidth import (BranchDecomposition, Tangle,
                          branch_width_certified, branch_width_exact,
                          check_split_pairs, decomposition_width,
                          expand_decomposition, fan_decomposition,
                          rank_bounded_family, three_flats_cover_plus_two)
from .classes import (expansion_positroid_order, is_positroid_order,
                      positroid_search, presentation_matroid, rank_one,
                      verify_presentation)
from .connectivity import (flats_cover, scaling_side, tutte_connectivity,
                           two_flats_cover_plus_one, vertical_connectivity)
from .core import GroundSet, Matroid
from .errors import BudgetExceeded, MatroidError
from .expansion import (Presentation, deflate_with_map, expand,
                        expand_presentation, expand_via_union, matroid_union)
from .invariants import config_isomorphic, configuration, tutte_polynomial


def _jsonable(v):
    if v is None or isinstance(v, (bool, int, float, str)):
        return v
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    return str(v)


@dataclass
class CheckResult:
    check_id: str
    instance: str
    expected: object
    computed: object
    passed: bool
    seconds: float
    repro: Optional[dict] = None

    def to_json_dict(self) -> dict:
        out = {
            "id": self.check_id,
            "instance": self.instance,
            "expected": _jsonable(self.expected),
            "computed": _jsonable(self.computed),
            "passed": self.passed,
            "seconds": round(self.seconds, 6),
        }
        if self.repro is not None:
            out["repro"] = _jsonable(self.repro)
        return out

    def format_line(self) -> str:
        word = "PASS" if self.passed else "FAIL"
        return "%s  %-24s %-38s expected=%r computed=%r (%.3fs)" % (
            word, self.check_id, self.instance, self.expected,
            self.computed, self.seconds)


@dataclass
class VerificationReport:
    name: str
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def seconds(self) -> float:
        return sum(c.seconds for c in self.checks)

    def run(self, check_id: str, instance: str, expected,
            fn: Callable[[], object], repro: Optional[dict] = None) -> None:
        t0 = time.perf_counter()
        try:
            computed = fn()
            passed = computed == expected
        except (MatroidError, ValueError) as ex:
            computed = "error: %s" % ex
            passed = False
        dt = time.perf_counter() - t0
        self.checks.append(CheckResult(
            check_id, instance, expected, computed, passed, dt,
            repro if not passed else None))

    def to_json_dict(self) -> dict:
        return {
            "suite": self.name,
            "passed": self.passed,
            "seconds": round(self.seconds, 6),
            "checks": [c.to_json_dict() for c in self.checks],
        }

    def format_lines(self) -> List[str]:
        lines = [c.format_line() for c in self.checks]
        word = "PASS" if self.passed else "FAIL"
        lines.append("%s  %s: %d/%d checks passed (%.2fs)" % (
            word, self.name, sum(c.passed for c in self.checks),
            len(self.checks), self.seconds))
        return lines


def random_matroid(rng: random.Random, max_n: int = 6) -> Matroid:
    """A seeded random matroid: a union of rank-1 matroids, often dualized.

    The union of k rank-1 matroids with random non-loop sets gives a
    transversal matroid; taking the dual half the time leaves the class
    of test instances closed under duality.  Loopless draws are nearly
    always positroids: with n <= 7, all of 2,000 were.  A differential
    set that needs negative positroid verdicts must add other families.
    """
    n = rng.randint(1, max_n)
    ground = GroundSet([str(i + 1) for i in range(n)])
    k = rng.randint(2, 4)
    sets = tuple(rng.getrandbits(n) for _ in range(k))
    M = presentation_matroid(Presentation(ground=ground, sets=sets))
    if rng.random() < 0.5:
        M = M.dual()
    return M


def suite_figures(**_) -> VerificationReport:
    rep = VerificationReport("figures")
    m1a, m1b = catalog.get("fig1_M"), catalog.get("fig1_N")
    m2a, m2b = catalog.get("fig2_M"), catalog.get("fig2_N")
    m3a, m3b = catalog.get("fig3_M"), catalog.get("fig3_N")
    rep.run("tau", "fig1_M", 2,
            lambda: tutte_connectivity(m1a).value)
    rep.run("tau", "fig1_N", 3,
            lambda: tutte_connectivity(m1b).value)
    rep.run("kappa", "fig1_M", 2,
            lambda: vertical_connectivity(m1a).value)
    rep.run("kappa", "fig1_N", 3,
            lambda: vertical_connectivity(m1b).value)
    rep.run("bw-exact", "fig2_M", 3, lambda: branch_width_exact(m2a)[0])
    rep.run("bw-exact", "fig2_N", 4, lambda: branch_width_exact(m2b)[0])
    rep.run("kappa", "fig3_M", 3,
            lambda: vertical_connectivity(m3a).value)
    rep.run("kappa", "fig3_N", 3,
            lambda: vertical_connectivity(m3b).value)
    rep.run("config-isomorphic", "fig1_M vs fig1_N", True,
            lambda: config_isomorphic(configuration(m1a),
                                      configuration(m1b))[0])
    rep.run("config-isomorphic", "fig2_M vs fig2_N", True,
            lambda: config_isomorphic(configuration(m2a),
                                      configuration(m2b))[0])
    rep.run("tutte-equal", "fig1_M vs fig1_N", True,
            lambda: tutte_polynomial(m1a) == tutte_polynomial(m1b))
    return rep


def suite_tau(**_) -> VerificationReport:
    rep = VerificationReport("tau")
    M = catalog.get("fig1_M")
    N = catalog.get("fig1_N")
    for t in (1, 2, 3):
        Mt, _ = expand(M, t)
        Nt, _ = expand(N, t)
        rep.run("tau-scaling", "expand(fig1_M,%d)" % t, t + 1,
                lambda Mt=Mt: tutte_connectivity(Mt).value)
        rep.run("tau-scaling", "expand(fig1_N,%d)" % t, 2 * t + 1,
                lambda Nt=Nt: tutte_connectivity(Nt).value)
        rep.run("tau-gap", "fig1 pair, t=%d" % t, t,
                lambda Mt=Mt, Nt=Nt:
                tutte_connectivity(Nt).value
                - tutte_connectivity(Mt).value)
    return rep


def suite_kappa(**_) -> VerificationReport:
    rep = VerificationReport("kappa")
    M = catalog.get("fig1_M")
    N = catalog.get("fig1_N")
    for t in (1, 2, 3):
        Mt, _ = expand(M, t)
        Nt, _ = expand(N, t)
        rep.run("kappa-scaling", "expand(fig1_M,%d)" % t, t + 1,
                lambda Mt=Mt: vertical_connectivity(Mt).value)
        rep.run("kappa-scaling", "expand(fig1_N,%d)" % t, 2 * t + 1,
                lambda Nt=Nt: vertical_connectivity(Nt).value)
    N2, _ = expand(N, 2)
    rep.run("kappa", "expand(fig1_N,2)", 5,
            lambda: vertical_connectivity(N2).value)
    P, _ = expand(catalog.get("fig3_N"), 2)
    rep.run("kappa", "expand(fig3_N,2)", 6,
            lambda: vertical_connectivity(P).value)
    rep.run("kappa-equals-rank", "expand(fig3_N,2)", True,
            lambda: vertical_connectivity(P).value == P.rank_total)

    Q3 = catalog.get("fig3_M")
    Qt, emap = expand(Q3, 2)

    def witness_is_vertical_5_separation():
        x = emap.s_mask(Q3.ground.mask_of(["1", "2", "3"]))
        x |= 1 << Qt.ground.index[emap.blocks["6"][0]]
        rx = Qt.rank(x)
        ry = Qt.rank(Qt.ground.full & ~x)
        return bool(Qt.lam(x) < 5 and rx >= 5 and ry >= 5)

    rep.run("vertical-5-separation",
            "expand(fig3_M,2): blocks of {1,2,3} plus one copy of 6", True,
            witness_is_vertical_5_separation)
    rep.run("kappa-below-rank", "expand(fig3_M,2)", True,
            lambda: vertical_connectivity(Qt).value
            < Qt.rank_total)
    return rep


def _expanded_fan(Nt: Matroid, emap) -> BranchDecomposition:
    """The three-arm decomposition of expand(fig2_N,t) from its line cover.

    Arm i carries the blocks of line L_i (minus the blocks already used),
    and the free element's block is split across the first two arms.
    """
    b = emap.blocks
    arm1 = [x for e in ("2", "3", "4") for x in b[e]]
    arm2 = [x for e in ("5", "6") for x in b[e]]
    arm3 = [x for e in ("7", "8", "9") for x in b[e]]
    free = list(b["1"])
    half = (len(free) + 1) // 2
    arm1 += free[:half]
    arm2 += free[half:]
    return fan_decomposition([arm1, arm2, arm3])


def suite_bw(exact_budget: Optional[int] = None, **_) -> VerificationReport:
    rep = VerificationReport("bw")
    M = catalog.get("fig2_M")
    N = catalog.get("fig2_N")
    tree = catalog.three_lines_tree()
    rep.run("bw-exact", "fig2_M", 3, lambda: branch_width_exact(M)[0])
    rep.run("decomposition-width", "three-lines tree on fig2_M", 3,
            lambda: decomposition_width(M, tree))
    rep.run("bw-exact", "fig2_N", 4, lambda: branch_width_exact(N)[0])
    rep.run("decomposition-width", "three-lines tree on fig2_N", 4,
            lambda: decomposition_width(N, tree))

    Mt, emapM = expand(M, 2)
    D5 = expand_decomposition(tree, emapM)

    def cert_m():
        cert = branch_width_certified(
            Mt, D5, Tangle(order=5, members=rank_bounded_family(Mt, 4)))
        return (cert.exact, cert.value)

    rep.run("bw-certified", "expand(fig2_M,2)", (True, 5), cert_m)

    Nt, emapN = expand(N, 2)
    fan = _expanded_fan(Nt, emapN)

    def cert_n():
        cert = branch_width_certified(
            Nt, fan, Tangle(order=6, members=rank_bounded_family(Nt, 5)))
        return (cert.exact, cert.value)

    rep.run("bw-certified", "expand(fig2_N,2)", (True, 6), cert_n)

    if exact_budget is None:
        return rep
    # an exact row runs when the DP's split pairs fit the budget
    for name, Xt, want in (("expand(fig2_M,2)", Mt, 5),
                           ("expand(fig2_N,2)", Nt, 6)):
        try:
            check_split_pairs(Xt, exact_budget)
        except BudgetExceeded:
            continue
        rep.run("bw-exact", name, want, lambda Xt=Xt: branch_width_exact(
            Xt, budget=exact_budget)[0])
    return rep


def _composition_roundtrip(M: Matroid) -> bool:
    """expand(expand(M,2),2) matches expand(M,4), and deflating by 4
    recovers a matroid equal to M after a clone-respecting relabel."""
    N2, e2 = expand(M, 2)
    N22, e22 = expand(N2, 2)
    N4, e4 = expand(M, 4)
    mapping = {}
    for e in M.ground.labels:
        flat22 = [lab for x in e2.blocks[e] for lab in e22.blocks[x]]
        for a, b in zip(flat22, e4.blocks[e]):
            mapping[a] = b
    if not N22.relabel(mapping).equals(N4):
        return False
    d, _ = deflate_with_map(N22, 4)
    class_of = {}
    for cmask in M.clonal_classes():
        labs = tuple(sorted(M.ground.labels_of(cmask)))
        for lab in labs:
            class_of[lab] = labs
    groups = {}
    for lab in d.ground.labels:
        base = e2.inverse[e22.inverse[lab]]
        groups.setdefault(class_of[base], []).append(lab)
    back = {}
    for targets, reps in groups.items():
        if len(reps) != len(targets):
            return False
        for a, b in zip(sorted(reps), targets):
            back[a] = b
    return d.relabel(back).equals(M)


def suite_expansion_lemmas(seed: int = 0, trials: int = 200, **_
                           ) -> VerificationReport:
    rep = VerificationReport("expansion-lemmas")
    rng = random.Random(seed)
    minor_trials = max(1, trials // 4)
    flat_trials = max(1, trials // 4)
    for name in catalog.names():
        M = catalog.get(name)
        n = M.ground.n
        full = M.ground.full
        for t in (1, 2, 3):
            Mt, emap = expand(M, t)
            inst = "%s, t=%d" % (name, t)

            def rank_scaling(M=M, Mt=Mt, emap=emap, t=t):
                bad = 0
                for _ in range(trials):
                    x = rng.getrandbits(n)
                    if Mt.rank(emap.s_mask(x)) != t * M.rank(x):
                        bad += 1
                return bad

            rep.run("rank-scaling", inst, 0, rank_scaling,
                    repro={"matroid": M.to_json_dict(), "t": t,
                           "seed": seed})
            rep.run("dual-commutation", inst, True,
                    lambda M=M, Mt=Mt, t=t:
                    expand(M.dual(), t)[0].equals(Mt.dual()))

            def transfer(M=M, Mt=Mt, emap=emap):
                bad = 0
                for _ in range(flat_trials):
                    x = rng.getrandbits(n)
                    sx = emap.s_mask(x)
                    if M.is_flat(x) != Mt.is_flat(sx):
                        bad += 1
                    elif M.is_cyclic(x) != Mt.is_cyclic(sx):
                        bad += 1
                return bad

            rep.run("flat-cyclic-transfer", inst, 0, transfer,
                    repro={"matroid": M.to_json_dict(), "t": t,
                           "seed": seed})

            def minors(M=M, Mt=Mt, emap=emap, t=t):
                bad = 0
                for _ in range(minor_trials):
                    s = rng.randint(1, n - 1)
                    x = 0
                    for i in rng.sample(range(n), s):
                        x |= 1 << i
                    comp = full & ~x
                    ok = Mt.delete(emap.s_mask(comp)).equals(
                        expand(M.delete(comp), t)[0])
                    if ok:
                        ok = Mt.contract(emap.s_mask(x)).equals(
                            expand(M.contract(x), t)[0])
                    if not ok:
                        bad += 1
                return bad

            rep.run("minor-commutation", inst, 0, minors,
                    repro={"matroid": M.to_json_dict(), "t": t,
                           "seed": seed})
        rep.run("composition", "%s: 2-expansion twice vs 4-expansion" % name,
                True, lambda M=M: _composition_roundtrip(M))

    M1 = catalog.get("fig1_M")
    members = [rank_one(M1.ground, M1.ground.mask_of(s))
               for s in (["1", "2", "3"], ["4", "5", "6"],
                         ["1", "2", "3", "4", "5", "6"])]
    rep.run("union-decomposition", "fig1_M as a union of rank-1 matroids",
            True, lambda: matroid_union(members).equals(M1))
    rep.run("union-expansion", "expand_via_union(fig1_M, t=2)", True,
            lambda: expand_via_union(M1, members, 2).equals(
                expand(M1, 2)[0]))
    return rep


def suite_classes(**_) -> VerificationReport:
    rep = VerificationReport("classes")
    for name in ("fig1_M", "fig1_N", "fig2_M"):
        M = catalog.get(name)
        order, _ = positroid_search(M)
        rep.run("positroid-search", name, True, lambda o=order: o is not None)
        if order is None:
            continue
        rep.run("positroid-order", name, True,
                lambda M=M, o=order: is_positroid_order(M, o)[0])

        def expanded(M=M, o=order):
            order_t, Mt, _ = expansion_positroid_order(M, o, 2)
            return is_positroid_order(Mt, order_t)[0]

        rep.run("expansion-positroid-order", "expand(%s,2)" % name, True,
                expanded)
    for name in ("fig1_M", "fig2_M"):
        M = catalog.get(name)
        P = catalog.presentation(name)
        rep.run("presentation-verify", name, True,
                lambda M=M, P=P: verify_presentation(M, P))

        for t in range(2, 7):

            def expanded_presentation(M=M, P=P, t=t):
                Mt, emap = expand(M, t)
                Pt = expand_presentation(P, emap)
                return presentation_matroid(Pt).equals(Mt)

            rep.run("presentation-expansion", "expand(%s,%d)" % (name, t),
                    True, expanded_presentation)
    return rep


def suite_equivalences(seed: int = 0, trials: int = 200, **_
                       ) -> VerificationReport:
    rep = VerificationReport("equivalences")
    rng = random.Random(seed)
    sample = [random_matroid(rng, 6) for _ in range(trials)]

    for t in (2, 3):
        repro = {"seed": seed, "trials": trials, "t": t, "failures": []}

        def flats_vs_kappa(t=t, failures=repro["failures"]):
            for i, M in enumerate(sample):
                lhs = two_flats_cover_plus_one(M)[0]
                Mt, _ = expand(M, t)
                rhs = (vertical_connectivity(Mt).value
                       < Mt.rank_total)
                if lhs != rhs:
                    failures.append({"index": i,
                                     "matroid": M.to_json_dict(),
                                     "two_flats": lhs,
                                     "kappa_below_rank": rhs})
            return len(failures)

        rep.run("two-flats-iff-kappa", "%d seeded samples, t=%d"
                % (trials, t), 0, flats_vs_kappa, repro=repro)

    small = [M for M in sample if M.ground.n <= 5]
    repro_b = {"seed": seed, "trials": trials, "t": 3, "failures": []}

    def flats_vs_bw3(failures=repro_b["failures"]):
        for i, M in enumerate(small):
            lhs = three_flats_cover_plus_two(M)[0]
            Mt, _ = expand(M, 3)
            rhs = branch_width_exact(Mt)[0] <= Mt.rank_total
            if lhs != rhs:
                failures.append({"index": i, "matroid": M.to_json_dict(),
                                 "three_flats": lhs, "bw_at_most_rank": rhs})
        return len(failures)

    rep.run("three-flats-iff-bw", "%d samples with n<=5, t=3" % len(small),
            0, flats_vs_bw3, repro=repro_b)

    # The three-flat-cover characterization of bw(M) <= r(M) needs M to
    # be coloop-free: for a matroid of loops and coloops bw is 1, yet a
    # single coloop lies in no proper flat (witness: the one-element free
    # matroid).  The cover always gives the bound, so that direction is
    # checked unconditionally.
    sample8 = [random_matroid(rng, 8) for _ in range(trials)]
    repro_c = {"seed": seed, "trials": trials, "failures": []}

    def cover_vs_bw(failures=repro_c["failures"]):
        for i, M in enumerate(sample8):
            lhs = flats_cover(M, 3, 0) is not None
            rhs = branch_width_exact(M)[0] <= M.rank_total
            if (lhs != rhs) if M.coloops == 0 else (lhs and not rhs):
                failures.append({"index": i, "matroid": M.to_json_dict(),
                                 "cover": lhs, "bw_at_most_rank": rhs})
        return len(failures)

    rep.run("three-flat-cover-iff-bw",
            "%d seeded samples, n<=8 (equivalence on coloop-free ones)"
            % trials, 0, cover_vs_bw, repro=repro_c)
    return rep


# Each suite takes the run_suite options it uses and ignores the rest.
SUITES = {
    "figures": suite_figures,
    "tau": suite_tau,
    "kappa": suite_kappa,
    "bw": suite_bw,
    "expansion-lemmas": suite_expansion_lemmas,
    "classes": suite_classes,
    "equivalences": suite_equivalences,
}
SUITE_NAMES = tuple(SUITES)
# Each scaling theorem and the side of kappa_scaling_check it checks.
THEOREMS = {"tau-scaling": "tau", "kappa-scaling": "kappa"}


def run_suite(name: str, seed: int = 0, trials: int = 200, threads: int = 1,
              exact_budget: Optional[int] = None) -> VerificationReport:
    if name not in SUITES:
        raise ValueError("unknown suite %r; have %s"
                         % (name, ", ".join(SUITE_NAMES)))
    return SUITES[name](seed=seed, trials=trials, exact_budget=exact_budget)


def run_theorem(theorem: str, M: Matroid, instance: str, t: int,
                threads: int = 1) -> VerificationReport:
    if theorem not in THEOREMS:
        raise ValueError("unknown theorem %r; have %s"
                         % (theorem, ", ".join(THEOREMS)))
    rep = VerificationReport("theorem:%s" % theorem)
    t0 = time.perf_counter()
    chk = scaling_side(THEOREMS[theorem], M, expand(M, t)[0], t)
    dt = time.perf_counter() - t0
    expected, computed = chk.expected, chk.computed
    if not chk.applicable:
        expected = "(hypothesis of the scaling theorem)"
        computed = "not applicable: %s (observed %r)" % (chk.reason, computed)
    rep.checks.append(CheckResult(
        theorem, "%s, t=%d" % (instance, t), expected, computed,
        chk.match is True, dt,
        None if chk.match else {"matroid": M.to_json_dict(), "t": t}))
    return rep
