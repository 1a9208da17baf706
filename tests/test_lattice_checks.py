"""Lattice operations against direct definitions: validate_axioms against
the literal order sweep and, in verdict, the per-element rank-formula
oracle, closure and cyclic parts against rank tables, and the expansion
and duality identities on random matroids."""

import random
from collections import Counter
from itertools import combinations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cycflats.core
from cycflats import (AxiomViolation, GroundSet, Z3Violation, deflate,
                      expand, popcount, validate_axioms)
from cycflats.verify import random_matroid

from oracles import (family_checks, formula_oracle, order_violations,
                     rank_table_oracle, validate_oracle)

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.filter_too_much])

MUTATIONS = ("none", "rank+1", "rank-1", "drop", "add", "swap")


@st.composite
def families(draw):
    """The cyclic flats of a random matroid on <= 7 elements, as
    (mask, rank) pairs, after one mutation: a rank raised or lowered by
    one, a flat dropped, a random set added with a random rank, or the
    ranks of two flats swapped."""
    M = random_matroid(random.Random(draw(st.integers(0, 2 ** 32 - 1))), 7)
    n = M.ground.n
    zee = dict(M.zee)
    masks = list(zee)
    kind = draw(st.sampled_from(MUTATIONS))
    a = draw(st.sampled_from(masks))
    if kind == "rank+1":
        zee[a] += 1
    elif kind == "rank-1" and zee[a] > 0:
        zee[a] -= 1
    elif kind == "drop" and len(masks) > 1:
        del zee[a]
    elif kind == "add":
        zee[draw(st.integers(0, (1 << n) - 1))] = draw(st.integers(0, n))
    elif kind == "swap":
        b = draw(st.sampled_from(masks))
        zee[a], zee[b] = zee[b], zee[a]
    return M.ground, sorted(zee.items())


def graded(draw, n, sets):
    """The sets, with 0 and the ground set, under ranks that pass (Z1) and
    (Z2) by construction: each set's nullity exceeds that of every member
    below it and its rank exceeds theirs.  A set's rank also leaves the
    ground set room above every member, so the ground set is never
    dropped; a set that leaves no such rank is."""
    full = (1 << n) - 1
    rank = {0: 0}
    nullity = {0: 0}
    for a in sorted(sets - {0, full}, key=popcount) + [full]:
        below = [b for b in rank if b & ~a == 0]
        low_null = max(nullity[b] + 1 for b in below)
        high_null = popcount(a) - max(rank[b] + 1 for b in below)
        top_rank, top_null = max(rank.values()), max(nullity.values())
        fits = [u for u in range(low_null, high_null + 1)
                if a == full or max(top_null, u) + max(top_rank, popcount(a)
                                                        - u) <= n - 2]
        if not fits:
            continue
        nullity[a] = draw(st.sampled_from(fits))
        rank[a] = popcount(a) - nullity[a]
    ground = GroundSet([str(i + 1) for i in range(n)])
    return ground, sorted(rank.items())


@st.composite
def graded_families(draw):
    """Random sets under graded ranks, so that the join, meet and (Z3)
    checks decide."""
    n = draw(st.integers(4, 7))
    return graded(draw, n, draw(st.sets(st.integers(1, (1 << n) - 2),
                                        max_size=6)))


@st.composite
def unjoined_families(draw):
    """Graded families with sets X = S | P and Y = S | Q under U = X | Y | A
    and V = X | Y | B, for disjoint nonempty P, Q, A, B and an S that
    leaves an element out, plus up to two random sets: like two lines
    under two planes, X and Y often have no join."""
    n = draw(st.integers(6, 8))
    perm = draw(st.permutations(range(n)))
    cuts = [0] + sorted(draw(st.sets(st.integers(1, n - 1), min_size=4,
                                     max_size=4)))
    p, q, a, b = (sum(1 << e for e in perm[s:t])
                  for s, t in zip(cuts, cuts[1:]))
    rest = perm[cuts[-1]:]
    s = sum(1 << e for e in rest[:draw(st.integers(0, len(rest) - 1))])
    x, y = s | p, s | q
    sets = {x, y, x | y | a, x | y | b}
    return graded(draw, n, sets | draw(st.sets(st.integers(1, (1 << n) - 2),
                                               max_size=2)))


ALL_FAMILIES = st.one_of(families(), graded_families(), unjoined_families())


def raised(flats, ground):
    try:
        validate_axioms(flats, ground)
    except AxiomViolation as exc:
        return exc
    return None


def _verdict(flats, ground):
    try:
        M = validate_axioms(flats, ground)
    except AxiomViolation as exc:
        return type(exc).__name__, exc.witness
    assert sorted(M.zee) == flats
    return None


def test_validation_matches_the_order_oracle():
    verdicts = Counter()

    @settings(SETTINGS, max_examples=600)
    @given(ALL_FAMILIES)
    def check(case):
        ground, flats = case
        want = validate_oracle(flats, ground.labels)
        assert _verdict(flats, ground) == want
        verdicts[want[0] if want else "accepted"] += 1

    check()
    # every verdict must have been reached: a check over no invalid
    # families shows nothing
    for name in ("accepted", "Z0Violation", "Z1Violation", "Z2Violation",
                 "Z3Violation"):
        assert verdicts[name] > 0, verdicts


@SETTINGS
@given(st.one_of(graded_families(), unjoined_families()))
def test_graded_draws_keep_the_ground_set(case):
    # a draw without a greatest member fails Z0 before the pair sweep
    ground, flats = case
    assert flats[-1][0] == ground.full


def family(labels, flats):
    """A ground set on labels and its sorted (mask, rank) pairs."""
    ground = GroundSet(labels)
    return ground, sorted((ground.mask_of(s), r) for s, r in flats)


def test_upper_bound_witness_matches_the_oracle():
    # three rank-2 planes contain the lines 23 and 26: the first plane is
    # their smallest upper bound, and the second misses it
    ground, flats = family("123456", (
        ("", 0), ("23", 1), ("26", 1), ("1236", 2), ("2346", 2),
        ("2356", 2), ("123456", 3)))
    want = validate_oracle(flats, ground.labels)
    assert want == ("Z0Violation", (("2", "3"), ("2", "6"),
                                    ("1", "2", "3", "6"),
                                    ("2", "3", "4", "6")))
    assert _verdict(flats, ground) == want


# two lines 12 and 34 under two planes 12345 and 12346 of rank 3
SEVEN = (("", 0), ("12", 1), ("34", 1), ("12345", 3), ("12346", 3),
         ("1234567", 4))


def test_the_first_failing_pair_is_named():
    # 256 and 368 have join 12345678 and meet the empty set, and meet
    # (Z3) (3 + 0 + 1 <= 4); the pair (256, 23458) breaks it (3 + 0 + 2 > 3)
    ground, flats = family("12345678", (
        ("", 0), ("256", 2), ("368", 2), ("23458", 1), ("12345678", 3)))
    want = ("Z3Violation", (("2", "5", "6"), ("2", "3", "4", "5", "8")))
    assert validate_oracle(flats, ground.labels) == want
    assert _verdict(flats, ground) == want
    # 12 and 34 have no join; 12345 and 12346 have no meet either, but
    # the sweep meets the missing join first
    ground, flats = family("1234567", SEVEN)
    want = ("Z0Violation", (("1", "2"), ("3", "4"), ("1", "2", "3", "4", "5"),
                            ("1", "2", "3", "4", "6")))
    assert validate_oracle(flats, ground.labels) == want
    assert _verdict(flats, ground) == want
    assert str(raised(flats, ground)) == (
        "['1', '2'] and ['3', '4'] have no join: the upper bound "
        "['1', '2', '3', '4', '6'] does not contain their smallest upper "
        "bound ['1', '2', '3', '4', '5']")


def test_z3_message_reads_the_lattice_join_and_meet():
    # the lines 1234 and 1235 share 123 and the parallel pair 12, their
    # meet: r(join) + r(meet) + |123 - 12| = 3 + 1 + 1 > 2 + 2
    ground, flats = family("123456", (
        ("", 0), ("12", 1), ("1234", 2), ("1235", 2), ("123456", 3)))
    got = raised(flats, ground)
    assert isinstance(got, Z3Violation)
    assert str(got) == ("pair ['1', '2', '3', '4'], ['1', '2', '3', '5']: "
                        "r(join)+r(meet)+1 = 5 exceeds r(X)+r(Y) = 4")


def test_a_missing_meet_is_never_the_first_violation():
    """If a lower bound W of X and Y is not inside their largest lower
    bound K, then K and W, swept before X and Y, have no join, so the
    order pass needs no meet check of its own."""
    kinds = Counter()

    def check(ground, flats):
        recs, names, verdict = family_checks(flats, ground.labels)
        if verdict is not None:
            return
        found = [kind for kind, _ in order_violations(recs, names)]
        assert found[:1] != ["no meet"]
        kinds[found[0] if found else "accepted"] += 1
        kinds["with a missing meet"] += "no meet" in found

    check(*family("1234567", SEVEN))
    assert kinds["with a missing meet"] == 1

    @settings(SETTINGS, max_examples=600)
    @given(ALL_FAMILIES)
    def sweep(case):
        check(*case)

    sweep()
    # every outcome must have been reached, and the meet check must have
    # fired on the random draws too, behind a missing join
    for name in ("accepted", "no join", "Z3Violation"):
        assert kinds[name] > 0, kinds
    assert kinds["with a missing meet"] > 1, kinds


@st.composite
def matroids(draw):
    """A random matroid on <= 7 elements, or its 2-expansion."""
    M = random_matroid(random.Random(draw(st.integers(0, 2 ** 32 - 1))), 7)
    return expand(M, 2)[0] if draw(st.booleans()) else M


@SETTINGS
@given(matroids(), st.integers(0, 2 ** 32 - 1))
def test_closure_and_cyclic_part_match_the_rank_table(M, seed):
    rank = rank_table_oracle(M)
    n = M.ground.n
    subsets = range(1 << n)
    if n > 8:
        subsets = random.Random(seed).sample(subsets, 256)
    bits = [1 << i for i in range(n)]
    for x in subsets:
        cl = x | sum(b for b in bits
                     if not x & b and rank[x | b] == rank[x])
        cyc = x & ~sum(b for b in bits if x & b and rank[x ^ b] < rank[x])
        assert M.closure(x) == cl
        assert M.is_flat(x) == (cl == x)
        assert M.cyclic_part(x) == cyc
        assert M.is_cyclic(x) == (cyc == x)


def test_hyperplanes_are_the_closures_of_corank_one_sets():
    seen = Counter()

    @SETTINGS
    @given(matroids())
    def check(M):
        rank = rank_table_oracle(M)
        r = M.rank_total
        bits = [1 << i for i in range(M.ground.n)]
        want = {x | sum(b for b in bits if rank[x | b] == rank[x])
                for x in range(1 << M.ground.n) if rank[x] == r - 1}
        assert M.hyperplanes() == sorted(want)
        seen["with hyperplanes" if want else "without"] += 1

    check()
    # a check over matroids without hyperplanes shows nothing
    assert seen["with hyperplanes"] > 0, seen


@SETTINGS
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 3]))
def test_deflate_undoes_expand_up_to_relabelling(seed, t):
    M = random_matroid(random.Random(seed), 7)
    Mt, emap = expand(M, t)
    back = deflate(Mt, t)
    # the clonal classes of M^t are the blown-up classes of M; deflate
    # keeps some labels of each, which map onto that class of M
    mapping = {}
    for cls in Mt.clonal_classes():
        labels = Mt.ground.labels_of(cls)
        kept = [lab for lab in labels if lab in back.ground.index]
        base = sorted({emap.inverse[lab] for lab in labels})
        assert len(kept) == len(base)
        mapping.update(zip(kept, base))
    assert back.relabel(mapping).equals(M)


@SETTINGS
@given(matroids(), st.integers(0, 2 ** 32 - 1))
def test_dual_of_deletion_is_contraction_of_dual(M, seed):
    x = random.Random(seed).getrandbits(M.ground.n)
    assert M.delete(x).dual().equals(M.dual().contract(x))
    assert M.contract(x).dual().equals(M.dual().delete(x))


# -- families whose pair sweep spans several blocks ---------------------------

def sparse_paving_family(seed, n=14, r=4, k=60):
    """The cyclic flats of a sparse paving matroid of rank r on n
    elements: k r-sets meeting pairwise in at most r - 2 elements, packed
    greedily in seeded order, with rank r - 1."""
    cands = [sum(1 << i for i in c) for c in combinations(range(n), r)]
    random.Random(seed).shuffle(cands)
    chs = []
    for c in cands:
        if all(popcount(c & h) <= r - 2 for h in chs):
            chs.append(c)
            if len(chs) == k:
                break
    assert len(chs) == k
    ground = GroundSet([str(i + 1) for i in range(n)])
    return ground, chs, [(0, 0), (ground.full, r)] + [(h, r - 1) for h in chs]


def oracle_key(labels):
    """The member order of validate_oracle: by size, then by label tuple."""
    return lambda a: (popcount(a), tuple(lab for i, lab in enumerate(labels)
                                         if a >> i & 1))


def sweep_position(masks, labels, x, y):
    """The number of incomparable pairs that the sweep of validate_oracle
    visits before the pair of members x and y."""
    order = sorted(masks, key=oracle_key(labels))
    i, j = sorted((order.index(x), order.index(y)))
    return sum(1 for p in range(len(order)) for q in range(p + 1, len(order))
               if order[p] & ~order[q] and order[q] & ~order[p]
               and (p, q) < (i, j))


def late_violation(ground, chs, r):
    """An r-set s of rank r - 1 that meets one circuit-hyperplane h in
    r - 1 elements and the others in at most r - 2: (Z3) fails on the
    pair (h, s) alone, which lies past the first block when both come
    late in the member order.  Returns the latest such (s, h)."""
    key = oracle_key(ground.labels)
    pairs = []
    for c in combinations(range(ground.n), r):
        s = sum(1 << i for i in c)
        meets = [h for h in chs if popcount(s & h) >= r - 1]
        if len(meets) == 1 and s not in chs:
            pairs.append((s, meets[0]))
    return max(pairs, key=lambda sh: sorted(map(key, sh)))


def test_validation_across_blocks_matches_the_oracle():
    r = 4
    ground, chs, flats = sparse_paving_family(2)
    labels = ground.labels
    # 62 members and 1,770 incomparable pairs: more than one block
    step = cycflats.core._CHUNK // (len(flats) + 1)
    assert len(flats) >= 60 and len(chs) * (len(chs) - 1) // 2 > step
    added, h = late_violation(ground, chs, r)
    masks = [a for a, _ in flats] + [added]
    assert sweep_position(masks, labels, added, h) >= step
    cases = {
        "accepted": flats,
        "drop": [f for f in flats if f[0] != chs[0]],
        "raise": [(a, rk + (a == ground.full)) for a, rk in flats],
        "add": flats + [(added, r - 1)],
    }
    got = {}
    for kind, members in cases.items():
        members = sorted(members)
        want = validate_oracle(members, labels)
        assert _verdict(members, ground) == want, kind
        got[kind] = want and want[0]
    # a sparse paving family without one circuit-hyperplane is one too;
    # raising r(E) breaks (Z3) on two that share r - 2 elements
    assert got == {"accepted": None, "drop": None, "raise": "Z3Violation",
                   "add": "Z3Violation"}


# -- the order pass against the rank-formula oracle ---------------------------

def test_order_pass_and_rank_formula_sweep_agree(monkeypatch):
    verdicts = Counter()
    flagged = []

    real = cycflats.core._raise_order_violation

    def spy(recs, ground, sub, i, j):
        flagged.append((i, j))
        real(recs, ground, sub, i, j)

    monkeypatch.setattr(cycflats.core, "_raise_order_violation", spy)

    @settings(SETTINGS, max_examples=600)
    @given(ALL_FAMILIES)
    def check(case):
        ground, flats = case
        flagged.clear()
        got = raised(flats, ground)
        accepted = formula_oracle(flats, ground.labels)
        if got is not None and not flagged:
            assert not accepted
            verdicts["before the pass"] += 1
            return
        # the order pass rejects exactly the families that the rank
        # formula rejects
        assert bool(flagged) == (not accepted) == (got is not None)
        verdicts[type(got).__name__ if got else "accepted"] += 1

    check()
    # both directions and both kinds of violation must have been reached
    for name in ("accepted", "Z0Violation", "Z3Violation"):
        assert verdicts[name] > 0, verdicts


def test_validation_of_a_302_flat_family():
    r = 5
    ground, chs, flats = sparse_paving_family(3, n=18, r=r, k=300)
    labels = ground.labels
    step = cycflats.core._CHUNK // (len(flats) + 1)
    M = validate_axioms(flats, ground)
    assert sorted(M.zee) == sorted(flats) and len(flats) == 302
    assert validate_oracle(flats, labels) is None
    # raising r(E) breaks (Z3) early in the sweep
    raise_top = sorted((a, rk + (a == ground.full)) for a, rk in flats)
    want = validate_oracle(raise_top, labels)
    assert want[0] == "Z3Violation"
    assert _verdict(raise_top, ground) == want
    # a late (Z3) violation past the first block: the sweep names it
    added, h = late_violation(ground, chs, r)
    late = sorted(flats + [(added, r - 1)])
    assert sweep_position([a for a, _ in late], labels, added, h) >= step
    got = raised(late, ground)
    assert isinstance(got, Z3Violation)
    assert (type(got).__name__, got.witness) == validate_oracle(late, labels)
    assert sorted(got.witness) == sorted(
        (ground.labels_of(added), ground.labels_of(h)))
