"""Lattice operations against direct definitions: validate_axioms against
the per-element oracle, closure and cyclic parts against rank tables, and
the expansion and duality identities on random matroids."""

import random
from collections import Counter
from itertools import combinations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cycflats.core
from cycflats import (AxiomViolation, GroundSet, Matroid, MatroidError,
                      Z3Violation, deflate, expand, popcount,
                      validate_axioms)
from cycflats.core import _raise_first_violation
from cycflats.verify import random_matroid

from oracles import rank_table_oracle, validate_oracle

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


@st.composite
def graded_families(draw):
    """Random sets with ranks that pass (Z1) and (Z2) by construction, so
    that the join, meet and (Z3) checks decide: each set's nullity
    exceeds that of every member below it and its rank exceeds theirs."""
    n = draw(st.integers(4, 7))
    full = (1 << n) - 1
    sets = draw(st.sets(st.integers(1, full - 1), max_size=6))
    rank = {}
    nullity = {}
    for a in sorted({0, full} | sets, key=popcount):
        below = [b for b in rank if b & ~a == 0]
        low_null = max([nullity[b] + 1 for b in below], default=0)
        high_null = popcount(a) - max([rank[b] + 1 for b in below],
                                      default=0)
        if high_null < low_null:
            continue
        nullity[a] = draw(st.integers(low_null, high_null))
        rank[a] = popcount(a) - nullity[a]
    ground = GroundSet([str(i + 1) for i in range(n)])
    return ground, sorted(rank.items())


def _verdict(flats, ground):
    try:
        M = validate_axioms(flats, ground)
    except AxiomViolation as exc:
        return type(exc).__name__, exc.witness
    assert sorted(M.zee) == flats
    return None


def test_validation_matches_the_per_element_oracle():
    verdicts = Counter()

    @settings(SETTINGS, max_examples=600)
    @given(st.one_of(families(), graded_families()))
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


def test_upper_bound_witness_matches_the_oracle():
    # three rank-2 planes over the lines 23 and 26 make every element
    # spanned by 236, so the computed join is the whole set, and the first
    # plane is an upper bound of the two lines that misses it
    ground = GroundSet("123456")
    flats = sorted((ground.mask_of(s), r) for s, r in (
        ("", 0), ("23", 1), ("26", 1), ("1236", 2), ("2346", 2),
        ("2356", 2), ("123456", 3)))
    want = validate_oracle(flats, ground.labels)
    assert want == ("Z0Violation", (("2", "3"), ("2", "6"),
                                    ("1", "2", "3", "6")))
    assert _verdict(flats, ground) == want


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
    for kind, family in cases.items():
        family = sorted(family)
        want = validate_oracle(family, labels)
        assert _verdict(family, ground) == want, kind
        got[kind] = want and want[0]
    # a sparse paving family without one circuit-hyperplane is one too;
    # raising r(E) breaks (Z3) on two that share r - 2 elements
    assert got == {"accepted": None, "drop": None, "raise": "Z3Violation",
                   "add": "Z3Violation"}


# -- the order pass against the rank-formula sweep -----------------------------

def formula_sweep(flats, ground):
    """The rank-formula sweep over every incomparable pair of the family
    (members sorted by size, so no member lies in an earlier one): its
    first violation, or None when it accepts."""
    recs = Matroid(ground, flats).zee
    m = len(recs)
    pairs = [i * m + j for i in range(m) for j in range(i + 1, m)
             if recs[i][0] & ~recs[j][0]]
    try:
        _raise_first_violation(recs, ground, np.array(pairs, dtype=np.intp))
    except AxiomViolation as exc:
        return exc
    except MatroidError:
        return None
    raise AssertionError("the sweep neither raised nor accepted")


def raised(flats, ground):
    try:
        validate_axioms(flats, ground)
    except AxiomViolation as exc:
        return exc
    return None


def same_violation(a, b):
    return (type(a), str(a), a.witness) == (type(b), str(b), b.witness)


def test_order_pass_and_rank_formula_sweep_agree(monkeypatch):
    verdicts = Counter()
    flagged = []

    def spy(recs, ground, pairs):
        flagged.append(len(pairs))
        _raise_first_violation(recs, ground, pairs)

    monkeypatch.setattr(cycflats.core, "_raise_first_violation", spy)

    @settings(SETTINGS, max_examples=600)
    @given(st.one_of(families(), graded_families()))
    def check(case):
        ground, flats = case
        flagged.clear()
        got = raised(flats, ground)
        if got is not None and not flagged:
            verdicts["before the pass"] += 1
            return
        # the order pass rejects exactly the families that the sweep
        # rejects, and then raises the sweep's first violation
        want = formula_sweep(flats, ground)
        assert bool(flagged) == (want is not None)
        if want is None:
            assert got is None
            verdicts["accepted"] += 1
        else:
            assert same_violation(got, want)
            verdicts[type(want).__name__] += 1

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
    # raising r(E) breaks (Z3) early in the sweep; the oracle reaches it
    # at once (it would take about a minute to accept the family)
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
    assert same_violation(got, formula_sweep(late, ground))
    assert sorted(got.witness) == sorted(
        (ground.labels_of(added), ground.labels_of(h)))
