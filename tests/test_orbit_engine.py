"""Differential tests of the count-vector engine behind exact branch-width,
rank-below tangles, tau, kappa and the Tutte polynomial, against the
independent oracles."""

import hashlib
import json
import random
from collections import Counter
from itertools import combinations, product
from math import comb

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import cycflats.branchwidth
import cycflats.core
import cycflats.invariants
import cycflats.orbits
from cycflats import (BudgetExceeded, Matroid, Tangle, branch_width_exact,
                      decomposition_width, expand, popcount,
                      rank_bounded_family, tutte_connectivity,
                      tutte_polynomial, uniform, validate_axioms,
                      verify_tangle, vertical_connectivity)
from cycflats.branchwidth import _bottom_up, _tangle_bound, _tangle_first
from cycflats.catalog import entries, get
from cycflats.core import from_json_dict, rank_of_mask_array, refined
from cycflats.orbits import OrbitSpace, clonal_space
from cycflats.verify import random_matroid

from oracles import (bw_dp_oracle, bw_oracle, kappa_oracle, lambda_oracle,
                     rank_below_tangle_oracle, rank_table_oracle,
                     tau_oracle, tutte_eval_oracle)

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.filter_too_much])


@st.composite
def expansions(draw, max_n=14):
    """A seeded random matroid on <= 7 elements and one of its
    t-expansions, t in {1, 2, 3}, with at most max_n elements."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    t = draw(st.sampled_from([1, 2, 3]))
    M = random_matroid(random.Random(seed), 7)
    assume(M.ground.n * t <= max_n)
    return M if t == 1 else expand(M, t)[0]


@st.composite
def catalog_minors(draw, max_n=12):
    """A deletion of a catalog matroid's expansion: classes of mixed
    sizes, one-element classes among them."""
    name = draw(st.sampled_from(sorted(entries())))
    t = draw(st.sampled_from([1, 2, 3]))
    M = expand(get(name), t)[0] if t > 1 else get(name)
    n = M.ground.n
    gone = draw(st.sets(st.integers(0, n - 1), min_size=max(0, n - max_n),
                        max_size=n - 1))
    return M.delete(sum(1 << i for i in gone))


samples = st.one_of(expansions(), catalog_minors())
small_samples = st.one_of(expansions(max_n=12), catalog_minors(max_n=10))


def test_branch_width_matches_the_oracles():
    seen = Counter()

    @SETTINGS
    @given(samples)
    def check(M):
        value, deco = branch_width_exact(M)
        want = bw_oracle(M) if M.ground.n <= 7 else bw_dp_oracle(M)
        assert value == want
        assert decomposition_width(M, deco) == value
        sizes = OrbitSpace(M).sizes
        if 1 in sizes and max(sizes) > 1:
            seen["mixed"] += 1

    check()
    # the split scan steps one-element classes as submasks and wide
    # classes in mixed radix; both must have met in one state space
    assert seen["mixed"], seen


@SETTINGS
@given(small_samples, st.randoms(use_true_random=False))
def test_take_decodes_the_dense_number(M, rnd):
    space = OrbitSpace(M)
    full = M.ground.full
    for x in range(space.count):
        assert space.index_of(space.take(x, full)) == x
        # any set holding at least the counts of x will do
        within = space.take(x, full, last=True) | rnd.getrandbits(64) & full
        X = space.take(x, within)
        assert X & ~within == 0
        assert space.index_of(X) == x


def sparse_paving(n, r, chs):
    """The sparse paving matroid of rank r on n elements whose
    circuit-hyperplanes are the r-sets chs, which meet pairwise in at
    most r - 2 elements."""
    labels = [str(i + 1) for i in range(n)]
    return validate_axioms([((), 0)]
                           + [([labels[i] for i in h], r - 1) for h in chs]
                           + [(labels, r)], labels)


def packing(cands, r):
    """The r-sets of cands that meet every earlier kept one in at most
    r - 2 elements."""
    chosen = []
    for c in cands:
        if all(len(set(c) & set(h)) <= r - 2 for h in chosen):
            chosen.append(c)
    return chosen


@st.composite
def sparse_pavings(draw):
    """A sparse paving matroid on 6..10 elements of rank 3 or 4, with the
    first k sets of a greedy packing of shuffled r-sets."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(6, 10))
    r = draw(st.sampled_from([3, 4]))
    cands = list(combinations(range(n), r))
    rng.shuffle(cands)
    chs = packing(cands, r)
    return sparse_paving(n, r, chs[:draw(st.integers(1, len(chs)))])


@st.composite
def representatives(draw):
    """A random matroid on <= 10 elements restricted to one element of
    each clonal class."""
    M = random_matroid(random.Random(draw(st.integers(0, 2 ** 32 - 1))), 10)
    keep = sum(c & -c for c in M.clonal_classes())
    return M.delete(M.ground.full & ~keep)


@settings(SETTINGS, max_examples=60)
@given(st.one_of(sparse_pavings(), representatives()))
def test_pruned_split_scan_matches_the_full_recursion(M):
    # without clones the states are masks and the DP stops a state's
    # splits at lambda(X)+1; the oracle scans every split
    assume(OrbitSpace(M).radix2)
    value, deco = branch_width_exact(M)
    assert value == bw_dp_oracle(M)
    assert decomposition_width(M, deco) == value


def test_sparse_paving_branch_width_is_rank_plus_one():
    # with n >= 3r + 3 the sets of rank below r form a tangle of order
    # r + 1, and no set has lambda above r
    n, r = 12, 3
    M = sparse_paving(n, r, packing(combinations(range(n), r), r))
    assert OrbitSpace(M).radix2
    value, deco = branch_width_exact(M)
    assert value == r + 1
    assert decomposition_width(M, deco) == r + 1


@SETTINGS
@given(small_samples)
def test_rank_below_tangle_verdicts_match_the_axioms(M):
    for c in range(1, M.rank_total + 2):
        for k in range(1, c + 3):
            ok, witness = verify_tangle(M, Tangle(k, rank_bounded_family(M,
                                                                         c)))
            assert ok == rank_below_tangle_oracle(M, c, k), (c, k, witness)
            assert (witness is None) == ok


@SETTINGS
@given(small_samples)
def test_tangle_witnesses_are_violations(M):
    rank = rank_table_oracle(M)
    lam = lambda_oracle(M)
    full = M.ground.full
    for c in range(1, M.rank_total + 2):
        for k in range(1, c + 3):
            ok, w = verify_tangle(M, Tangle(k, rank_bounded_family(M, c)))
            if ok:
                continue
            if w["axiom"] in ("T1", "T2"):
                x = M.ground.mask_of(w["set"])
                assert w["lambda"] == lam[x]
                if w["axiom"] == "T1":
                    assert rank[x] < c and lam[x] >= k - 1
                else:
                    assert lam[x] < k - 1
                    assert rank[x] >= c and rank[full ^ x] >= c
            elif w["axiom"] == "T3":
                sets = [M.ground.mask_of(s) for s in w["sets"]]
                assert all(rank[s] < c for s in sets)
                assert sets[0] | sets[1] | sets[2] == full
            else:
                e = M.ground.mask_of([w["element"]])
                assert w["axiom"] == "T4" and rank[full ^ e] < c


@SETTINGS
@given(st.integers(0, 2 ** 32 - 1))
def test_states_carry_rank_and_lambda(seed):
    M = expand(random_matroid(random.Random(seed), 5), 2)[0]
    space = OrbitSpace(M)
    rank = rank_table_oracle(M)
    lam = lambda_oracle(M)
    ranks, lams = space.ranks(), space.lams()
    assert space.count == len(ranks)
    for i in range(space.count):
        x = space.take(i, M.ground.full)
        assert space.index_of(x) == i
        assert ranks[i] == rank[x] and lams[i] == lam[x]
        y = space.take(i, M.ground.full, last=True)
        assert popcount(x) == popcount(y) and rank[y] == rank[x]


def fano():
    lines = ["124", "235", "346", "457", "156", "267", "137"]
    return validate_axioms([((), 0)] + [(set(ln), 2) for ln in lines]
                           + [(set("1234567"), 3)], list("1234567"))


def test_clone_free_states_are_masks():
    F = fano()
    space = OrbitSpace(F)
    assert space.radix2 and space.count == 1 << 7
    assert space.lo == space.count - 1
    assert space.pairs == 3 ** 7
    assert all(space.take(x, F.ground.full) == x == space.index_of(x)
               for x in range(1 << 7))
    assert (space.lams() == lambda_oracle(F)).all()
    assert branch_width_exact(F)[0] == bw_oracle(F)


def test_wide_splits_refill_the_classes_below():
    # classes of 2, 2, 3 and 4 elements; a split scan that steps a wide
    # class down without refilling the wide classes under it from x
    # finds 5 here
    M = expand(get("fig1_N"), 2)[0].delete(1 << 2)
    assert sorted(OrbitSpace(M).sizes) == [2, 2, 3, 4]
    value, deco = branch_width_exact(M)
    assert value == bw_dp_oracle(M) == 4
    assert decomposition_width(M, deco) == 4


def test_doubled_examples_under_the_default_budget():
    assert branch_width_exact(expand(get("fig2_M"), 2)[0])[0] == 5
    assert branch_width_exact(expand(get("fig2_N"), 2)[0])[0] == 6
    M4 = expand(get("fig2_M"), 4)[0]
    value, deco = branch_width_exact(M4)
    assert M4.ground.n == 36 and value == 9
    assert decomposition_width(M4, deco) == 9


def test_budget_counts_split_pairs():
    M = get("fig2_M")                      # three classes of three
    assert OrbitSpace(M).pairs == 10 ** 3
    with pytest.raises(BudgetExceeded):
        branch_width_exact(M, budget=6)    # 3^6 = 729 < 1000
    assert branch_width_exact(M, budget=7)[0] == 3
    # clone-free: the budget is the element count, as before
    with pytest.raises(BudgetExceeded):
        branch_width_exact(fano(), budget=6)
    assert branch_width_exact(fano(), budget=7)[0] == bw_oracle(fano())
    # U(2,7) is one class of seven: 36 pairs
    assert branch_width_exact(uniform(2, 7), budget=4)[0] == 3


# -- one lambda table per space -----------------------------------------------

def test_the_lambda_table_is_built_once_and_read_only():
    for M in (fano(), expand(get("fig2_N"), 2)[0]):
        lams = clonal_space(M).lams()
        assert clonal_space(M).lams() is lams
        with pytest.raises(ValueError):
            lams[0] = 1
        with pytest.raises(ValueError):
            lams -= 1


def catalog_results(fresh):
    """JSON lines of tau, kappa, the tangle bound and exact branch-width
    (values, witnesses, trees) of every catalog entry at t = 1..6.  With
    fresh set, each call gets its own copy of the matroid, so none shares
    a table with another."""
    lines = []
    for name in sorted(entries()):
        for t in range(1, 7):
            M = expand(get(name), t)[0] if t > 1 else get(name)
            doc = M.to_json_dict()
            of = (lambda: from_json_dict(doc)) if fresh else (lambda: M)
            bw, tree = branch_width_exact(of())
            lines.append(json.dumps([
                name, t, tutte_connectivity(of()).to_json_dict(),
                vertical_connectivity(of()).to_json_dict(),
                _tangle_bound(of()), bw, tree.to_json_dict()],
                sort_keys=True))
    return "\n".join(lines)


# catalog_results as computed with a lambda table built per call
CATALOG_RESULTS_SHA256 = \
    "e7a868b95e1559a13ca2df2220d3d25427f52c88a9fa160d7b2ccad954c0da83"


def test_catalog_results_with_one_lambda_table():
    shared = catalog_results(fresh=False)
    assert shared == catalog_results(fresh=True)
    assert hashlib.sha256(shared.encode()).hexdigest() == \
        CATALOG_RESULTS_SHA256


# -- the tangle-first path ----------------------------------------------------

def tangle_path_agrees(M, seen):
    """The tangle-first path against the bottom-up DP, with its tree at
    the returned width; seen counts the inputs the decision settles and
    the ones that fall back to the floored DP."""
    value, deco = _tangle_first(M)
    assert value == _bottom_up(M)[0]
    assert decomposition_width(M, deco) == value
    seen["decided" if _tangle_bound(M) == value else "fallback"] += 1
    return value


def test_tangle_path_matches_the_dp_and_the_oracles():
    seen = Counter()

    @SETTINGS
    @given(st.one_of(expansions(max_n=8), catalog_minors(max_n=8)))
    def check(M):
        assume(M.ground.n >= 2)
        want = bw_oracle(M) if M.ground.n <= 7 else bw_dp_oracle(M)
        assert tangle_path_agrees(M, seen) == want

    check()
    assert seen["decided"] and seen["fallback"], seen


def test_tangle_path_on_expansions_with_short_bounds():
    # on some of these the rank-below bound falls short of bw, so the
    # decision at the bound fails and the floored DP runs
    rng = random.Random(71)
    seen = Counter()
    for _ in range(60):
        M = expand(random_matroid(rng, 6), rng.choice([2, 3]))[0]
        if M.ground.n >= 2:
            tangle_path_agrees(M, seen)
    assert seen["decided"] and seen["fallback"], seen


def test_tangle_path_on_sparse_paving_matroids():
    # n >= 3r + 3: the rank-below-r sets are a tangle of order r + 1 = bw
    rng = random.Random(73)
    seen = Counter()
    for n in (12, 13, 14):
        cands = list(combinations(range(n), 3))
        rng.shuffle(cands)
        M = sparse_paving(n, 3, packing(cands, 3))
        assert tangle_path_agrees(M, seen) == 4
    assert seen == {"decided": 3}


def test_the_decision_counts_the_pairs_it_examines():
    M = expand(get("fig2_N"), 4)[0]
    assert OrbitSpace(M).pairs > 3 ** 15
    # the decision at the tangle order 11 examines 138 split pairs
    with pytest.raises(BudgetExceeded, match="examined more than 3\\^4"):
        branch_width_exact(M, budget=4)
    assert branch_width_exact(M, budget=5)[0] == 11


# -- the T3 check in blocks of rows -------------------------------------------

def first_t3_pair(space, member, within=None):
    """The first pair (x, y) of inclusion-maximal member states, in dense
    order, whose remainder max(0, s - x - y) is flagged in within, the
    states inside some member: a plain double loop.  within defaults to
    member, for a family closed under subsets."""
    if within is None:
        within = member
    classes = list(zip(space.sizes, space.strides))
    digits = {x: [x // st % (s + 1) for s, st in classes]
              for x in range(space.count) if member[x]}
    maximal = [x for x, dx in digits.items() if not any(
        d < s and member[x + st] for d, (s, st) in zip(dx, classes))]
    for x in maximal:
        room = [(st, s - d) for d, (s, st) in zip(digits[x], classes)]
        for y in maximal:
            rest = sum(st * (left - d) for (st, left), d
                       in zip(room, digits[y]) if left > d)
            if within[rest]:
                return maximal, x, y
    return maximal, None, None


def t3_witness_agrees(M, space, tangle, member, first=None):
    """verify_tangle's T3 witness for a tangle whose members, closed under
    subsets, are given as member flags of the dense states of space, is
    the first violating pair of maximal members (first, when given, is
    that pair as first_t3_pair found it); returns that pair's row and the
    number of maximal members."""
    E = M.ground.full
    maximal, x, y = first or first_t3_pair(space, member)
    X, Y = space.take(x, E), space.take(y, E, last=True)
    want = [sorted(M.ground.labels_of(a)) for a in (X, Y, E & ~(X | Y))]
    assert verify_tangle(M, tangle) == (False, {"axiom": "T3", "sets": want})
    return maximal.index(x), len(maximal)


def three_covering_planes():
    """A sparse paving matroid of rank 5 on 15 elements in which three
    disjoint circuit-hyperplanes cover E, and every other triple of sets
    of rank below 5 misses an element; more circuit-hyperplanes, drawn in
    seeded order, separate the clones, and two of them come before the
    covering three in dense order.  Returns the matroid and the member
    flags of its sets of rank below 5, one per mask."""
    n, r = 15, 5
    parts = [(0, 1, 2, 3, 13), (4, 5, 6, 7, 14), (8, 9, 10, 11, 12)]
    cands = list(combinations(range(n), r))
    random.Random(5).shuffle(cands)
    chs = []
    for c in parts + cands:
        if all(len(set(c) & set(h)) <= r - 2 for h in chs):
            chs.append(c)
            M = sparse_paving(n, r, chs)
            if len(M.clonal_classes()) == n:
                break
    masks = {sum(1 << i for i in h) for h in chs}
    return M, [popcount(x) < r or x in masks for x in range(1 << n)]


def t3_sweep_past_the_first_block(monkeypatch, M, space, tangle, first,
                                  big):
    """verify_tangle again, with one row per block of its T3 sweep: the
    rows it sweeps are the maximal members of at least n - 2 big
    elements, in dense order, up to the violating row (first, the pair
    of first_t3_pair), and that row lies past the first block."""
    E = M.ground.full
    maximal, x, _ = first
    swept = [m for m in maximal
             if popcount(space.take(m, E)) >= M.ground.n - 2 * big]
    assert 3 * big >= M.ground.n and len(swept) < len(maximal)
    want = verify_tangle(M, tangle)
    blocks = []
    remainders = OrbitSpace.remainders

    def spy(self, xs, ys):
        blocks.append(np.ravel(xs).tolist())
        return remainders(self, xs, ys)

    monkeypatch.setattr(OrbitSpace, "remainders", spy)
    monkeypatch.setattr(cycflats.branchwidth, "_CHUNK", len(swept))
    assert verify_tangle(M, tangle) == want
    row = swept.index(x)
    assert row >= 1 and blocks == [[m] for m in swept[:row + 1]]


@pytest.fixture(scope="module")
def covering_planes():
    """three_covering_planes(), its clonal space and its first T3 pair,
    found once: the oracle takes seconds in pure Python."""
    M, member = three_covering_planes()
    space = OrbitSpace(M)
    return M, member, space, first_t3_pair(space, member)


def test_t3_witness_is_the_first_pair_past_the_first_block(monkeypatch,
                                                           covering_planes):
    M, member, space, first = covering_planes
    tangle = Tangle(6, rank_bounded_family(M, 5))
    row, count = t3_witness_agrees(M, space, tangle, member, first)
    # more than 256 maximal members: more than one block of rows, and
    # the violating row lies past the first
    assert count > 256 and row >= cycflats.core._CHUNK // count
    # a member has at most big = 5 elements (a circuit-hyperplane, rank
    # 4), so the library sweeps only the circuit-hyperplanes
    t3_sweep_past_the_first_block(monkeypatch, M, space, tangle, first, 5)


def test_explicit_t3_witness_past_the_first_block(monkeypatch,
                                                  covering_planes):
    # the same sets as explicit masks: the singleton space, the superset
    # table, and Z the first member containing the rest, here the rest.
    # M has no clones, so both spaces number the states alike and share
    # the first pair
    M, member, clonal, first = covering_planes
    space = OrbitSpace(M, [1 << i for i in range(M.ground.n)])
    assert (space.members, space.strides) == (clonal.members, clonal.strides)
    members = tuple(x for x, flag in enumerate(member) if flag)
    row, count = t3_witness_agrees(M, space, Tangle(6, members), member,
                                   first)
    assert count > 256 and row >= cycflats.core._CHUNK // count
    t3_sweep_past_the_first_block(monkeypatch, M, space, Tangle(6, members),
                                  first, 5)


def test_t3_witness_on_an_expansion():
    M = expand(get("fig2_N"), 3)[0]
    space = OrbitSpace(M)
    assert not space.radix2
    member = [M.rank(space.take(x, M.ground.full)) < 9
              for x in range(space.count)]
    t3_witness_agrees(M, space, Tangle(10, rank_bounded_family(M, 9)),
                      member)


# -- the size bound of T3 ------------------------------------------------------

def inside_a_member(member, n):
    """Flags of the masks contained in a flagged mask."""
    within = np.array(member, dtype=bool)
    masks = np.arange(1 << n)
    for i in range(n):
        low = masks[(masks >> i & 1) == 0]
        within[low] |= within[low | 1 << i]
    return within


def explicit_tangle_oracle(M, member, k):
    """Do the masks flagged in member form a tangle of order k?  The four
    axioms checked literally, T3 over every pair of members."""
    full = M.ground.full
    lam = np.array(lambda_oracle(M))
    memb = np.array(member, dtype=bool)
    if (memb & (lam >= k - 1)).any():                        # (T1)
        return False
    if ((lam < k - 1) & ~memb & ~memb[::-1]).any():          # (T2)
        return False
    if any(memb[full ^ (1 << i)] for i in range(M.ground.n)):  # (T4)
        return False
    within = inside_a_member(memb, M.ground.n)
    members = np.nonzero(memb)[0]
    return not any(within[full & ~(a | members)].any()       # (T3)
                   for a in members)


def t3_agrees(M, space, member, within, got, seen):
    """verify_tangle's result got, for a family that passed T1 and T2,
    against the first violating pair of the unpruned sweep; seen counts
    how the family's largest member, big, relates to n."""
    n, E = M.ground.n, M.ground.full
    maximal, x, y = first_t3_pair(space, member, within)
    big = max((popcount(space.take(m, E)) for m in maximal), default=0)
    if 3 * big < n:
        seen["skipped"] += 1
    else:
        seen["3 big = n" if 3 * big == n else "3 big > n"] += 1
        if any(popcount(space.take(m, E)) < n - 2 * big for m in maximal):
            seen["dropped"] += 1
    if x is None:
        assert got[1] is None or got[1]["axiom"] == "T4", got
        return
    seen["T3"] += 1
    X, Y = space.take(x, E), space.take(y, E, last=True)
    Z = E & ~(X | Y)
    if within is not member:                 # the first member above it
        Z = next(z for z in range(1 << n) if member[z] and z & Z == Z)
    want = [sorted(M.ground.labels_of(a)) for a in (X, Y, Z)]
    assert got == (False, {"axiom": "T3", "sets": want})


@st.composite
def bound_samples(draw):
    """A random matroid on <= 10 elements, or the 2-expansion of one on
    <= 5."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        return random_matroid(rng, 10)
    return expand(random_matroid(rng, 5), 2)[0]


def direct_sum(parts):
    """The direct sum of uniform matroids U(r, s), given as (r, s) pairs
    in element order: its cyclic flats are the unions of the parts with
    r < s, of rank the sum of their r."""
    labels, cyclic = [], []
    for r, s in parts:
        block = [str(len(labels) + i + 1) for i in range(s)]
        labels += block
        if r < s:
            cyclic.append((block, r))
    flats = [(sum((b for b, _ in pick), []), sum(r for _, r in pick))
             for j in range(len(cyclic) + 1)
             for pick in combinations(cyclic, j)]
    return validate_axioms(flats, labels)


def test_t3_size_bound_matches_the_unpruned_sweep():
    seen = Counter()

    @settings(SETTINGS, max_examples=30)
    @given(st.one_of(bound_samples(), sparse_pavings()),
           st.integers(0, 2 ** 32 - 1))
    def check(M, seed):
        rnd = random.Random(seed)
        n, E = M.ground.n, M.ground.full
        space = OrbitSpace(M)
        rank = np.array(rank_table_oracle(M))
        lam = np.array(lambda_oracle(M))
        for c in range(1, M.rank_total + 2):
            member = [rank[space.take(x, E)] < c for x in range(space.count)]
            for k in range(1, c + 3):
                got = verify_tangle(M, Tangle(k, rank_bounded_family(M, c)))
                assert got[0] == rank_below_tangle_oracle(M, c, k), (c, k)
                if got[1] is None or got[1]["axiom"] not in ("T1", "T2"):
                    t3_agrees(M, space, member, member, got, seen)
                # explicit masks: the sets of rank below c that T1 admits,
                # thinned at random or padded with random sets T1 admits
                flags = (rank < c) & (lam < k - 1)
                if rnd.random() < 0.3:
                    flags &= np.array([rnd.random() < 0.8
                                       for _ in range(1 << n)])
                else:
                    for x in rnd.sample(range(1 << n), min(4, 1 << n)):
                        flags[x] |= lam[x] < k - 1
                got = verify_tangle(M, Tangle(k, tuple(
                    np.flatnonzero(flags).tolist())))
                assert got[0] == explicit_tangle_oracle(M, flags, k), (c, k)
                if got[1] is None or got[1]["axiom"] not in ("T1", "T2"):
                    masks = OrbitSpace(M, [1 << i for i in range(n)])
                    t3_agrees(M, masks, flags, inside_a_member(flags, n),
                              got, seen)

    check()
    assert all(seen[key] for key in ("skipped", "3 big = n", "3 big > n",
                                     "T3")), seen


def test_t3_size_bound_drops_small_maximal_members():
    # families of separators of direct sums, which pass T1 and T2 at
    # order 2 when they hold one side of every separation; {s}, A, B and
    # the empty set are maximal members too small for a violating pair
    seen = Counter()
    triangles = direct_sum([(2, 3), (2, 3), (2, 3), (1, 1)])   # P Q R s
    P, Q, R, s = 0b111, 0b111000, 0b111000000, 1 << 9
    coloop = direct_sum([(1, 1), (1, 2), (2, 6)])              # A B C
    A, B = 0b1, 0b110
    for M, family, want in (
            # P, Q and R + s cover E; big = 4 and n - 2 big = 2
            (triangles, (0, P, Q, R, s, P | s, Q | s, R | s), False),
            # 3 big = n = 9 and n - 2 big = 3
            (coloop, (0, A, B, A | B), True),
            # P, Q and R cover E, and 3 big = n = 9
            (triangles.delete(s), (0, P, Q, R), False)):
        n = M.ground.n
        flags = np.zeros(1 << n, dtype=bool)
        flags[list(family)] = True
        got = verify_tangle(M, Tangle(2, family))
        assert got[0] == explicit_tangle_oracle(M, flags, 2) == want
        masks = OrbitSpace(M, [1 << i for i in range(n)])
        t3_agrees(M, masks, flags, inside_a_member(flags, n), got, seen)
    assert seen == {"3 big > n": 1, "3 big = n": 2, "dropped": 3, "T3": 2}


def test_sparse_paving_tangles_skip_the_t3_sweep(monkeypatch):
    # n = 13 >= 3r + 3: a set of rank below r has at most r elements, so
    # no three members cover E, and neither the maximal members nor any
    # pair of them is looked for
    def no_sweep(*_):
        raise AssertionError("T3 swept the members")

    monkeypatch.setattr(OrbitSpace, "remainders", no_sweep)
    monkeypatch.setattr(cycflats.branchwidth, "_t3_pair", no_sweep)
    n, r = 13, 3
    cands = list(combinations(range(n), r))
    random.Random(79).shuffle(cands)
    M = sparse_paving(n, r, packing(cands, r))
    assert verify_tangle(M, Tangle(r + 1, rank_bounded_family(M, r))) == \
        (True, None)
    members = tuple(x for x in range(1 << n) if M.rank(x) < r)
    assert max(map(popcount, members)) == r
    assert verify_tangle(M, Tangle(r + 1, members)) == (True, None)


def test_remainders_broadcast_a_column_of_states():
    space = OrbitSpace(expand(get("fig2_N"), 2)[0])
    assert not space.radix2
    xs = np.arange(space.count)
    ys = xs[::7]
    want = np.stack([space.remainders(int(x), ys) for x in xs])
    assert np.array_equal(space.remainders(xs[:, None], ys), want)



# -- tau, kappa and the Tutte histogram on states ---------------------------

TUTTE_POINTS = ((1, 1), (3, 2), (2, 5), (0, 3))


def least_separation(M, rank, lam, vertical):
    """(value, smallest qualifying mask) of the tau or kappa scan, read
    off the oracle tables; (None, None) when nothing qualifies."""
    n, full = M.ground.n, M.ground.full
    best, at = None, None
    for x in range(1 << n):
        if vertical:
            bound = min(rank[x], rank[full ^ x])
        else:
            bound = min(popcount(x), n - popcount(x))
        if lam[x] < bound and (best is None or lam[x] < best):
            best, at = lam[x], x
    return (None, None) if best is None else (best + 1, at)


def test_connectivity_and_tutte_match_the_oracles():
    seen = Counter()

    @settings(SETTINGS, max_examples=80)
    @given(expansions())
    def check(M):
        rank = rank_table_oracle(M)
        lam = lambda_oracle(M)
        tau = tutte_connectivity(M)
        kappa = vertical_connectivity(M)
        assert tau.value == tau_oracle(M)
        assert kappa.value == kappa_oracle(M)
        for res, vertical in ((tau, False), (kappa, True)):
            value, at = least_separation(M, rank, lam, vertical)
            want = None if at is None else M.ground.labels_of(at)
            assert res.witness == want
        T = tutte_polynomial(M)
        for x, y in TUTTE_POINTS:
            assert T.evaluate(x, y) == tutte_eval_oracle(M, x, y)
        if OrbitSpace(M).count < 1 << M.ground.n:
            seen["clone-rich"] += 1
        if tau.value is None:
            seen["infinite tau"] += 1
        if M.loops:
            seen["looped"] += 1

    check()
    # the state scan, the uniform band and kappa's loop check must each
    # have been reached
    assert all(seen[k] for k in ("clone-rich", "infinite tau", "looped")), \
        seen


def test_four_fold_expansion_scales_tau_and_kappa():
    M = get("fig2_M")
    M4 = expand(M, 4)[0]
    assert M4.ground.n == 36
    tau = tutte_connectivity(M).value
    assert tutte_connectivity(M4).value == 4 * (tau - 1) + 1 == 9
    assert vertical_connectivity(M4).value == M4.rank_total == 12
    assert tutte_polynomial(M4).evaluate(2, 2) == 1 << 36


def test_clone_free_scans_keep_their_element_budget():
    n, r = 21, 3
    M = sparse_paving(n, r, packing(combinations(range(n), r), r))
    assert OrbitSpace(M).radix2 and OrbitSpace(M).count > 1 << 20
    with pytest.raises(BudgetExceeded):
        tutte_connectivity(M)
    with pytest.raises(BudgetExceeded):
        vertical_connectivity(M)


def test_clone_free_tangle_checks_keep_their_element_budget():
    n, r = 21, 3
    M = sparse_paving(n, r, packing(combinations(range(n), r), r))
    assert OrbitSpace(M).radix2 and OrbitSpace(M).count > 1 << 20
    with pytest.raises(BudgetExceeded):
        verify_tangle(M, Tangle(r + 1, rank_bounded_family(M, r)))
    with pytest.raises(BudgetExceeded):
        verify_tangle(M, Tangle(r + 1, (0, 1, 2, 4)))
    # both refused before a rank table was built
    assert M._table is None


def _state_tables(M, classes=None):
    """A fresh space of M over classes, by default its clonal classes,
    its rank table and the members that table sets alone."""
    M = Matroid(M.ground, M.zee)
    space = OrbitSpace(M, classes)
    return space, space.ranks(), cycflats.core._alone(M)


def _state_cases(seeds, t):
    """t-expansions of seeded random matroids and of their duals, over
    their clonal classes, and the draws themselves over the coarsest
    classes of which every cyclic flat is a union."""
    bases = [random_matroid(random.Random(seed), 7) for seed in seeds]
    bases += [M.dual() for M in bases]
    return [(expand(M, t)[0], None) for M in bases] + [
        (M, refined(M.ground, [a for a, _ in M.zee])) for M in bases]


def test_state_tables_match_the_oracles_whichever_members_are_set_alone():
    # every circuit-hyperplane of a matroid without loops or coloops is
    # set alone at its own state; the small catalog entries are
    # expanded too
    seen = Counter()
    cases = _state_cases(range(40), 2) + [
        (expand(M, 2)[0], None) for M in map(get, sorted(entries()))
        if M.ground.n <= 7]
    for X, classes in cases:
        rank = rank_table_oracle(X)
        space, ranks, alone = _state_tables(X, classes)
        sets = space.sets()
        assert ranks.tolist() == [rank[x] for x in sets.tolist()]
        assert np.array_equal(ranks, rank_of_mask_array(X, sets))
        seen["alone"] += 0 if space.radix2 else len(alone)
        seen["loops and coloops"] += bool(X.loops and X.coloops)
    assert seen["loops and coloops"] and seen["alone"]


def test_members_set_alone_beat_both_ends_on_their_own_state_alone():
    # over count vectors: a member between the least B and the greatest
    # T is set alone exactly when A's canonical state is the only one
    # whose set X has r(A) + |X - A| below r(T) + |X - T| and
    # r(B) + |X - B|
    listed = 0
    for X, classes in _state_cases(range(40), 3):
        space, _, alone = _state_tables(X, classes)
        (least, r0), (top, rt) = X.zee[0], X.zee[-1]
        sets = space.sets().tolist()
        single = {a for a, r in X.zee[1:-1] if [
            s for s in sets
            if r + popcount(s & ~a) < min(rt + popcount(s & ~top),
                                          r0 + popcount(s & ~least))
        ] == [a]}
        assert alone == single
        listed += 0 if space.radix2 else len(single)
    assert listed >= 5


def test_sliced_rank_tables_match_the_oracles(monkeypatch):
    # passes of at most 7 entries, so every pass boundary is crossed,
    # and state counts above 2^3, where the sets still come from the
    # same row split, low[i] | high[j]
    monkeypatch.setattr(cycflats.core, "_CHUNK", 7)
    monkeypatch.setattr(cycflats.invariants, "_CHUNK", 7)
    monkeypatch.setattr(cycflats.orbits, "STATE_BUDGET", 3)
    n, r = 10, 3
    F = sparse_paving(n, r, packing(combinations(range(n), r), r))
    M2 = expand(get("fig1_N"), 2)[0]
    # one-element classes {0} and {9} beside two wide classes
    pairs = [c for c in M2.clonal_classes() if popcount(c) == 2]
    M3 = M2.delete(sum(c & -c for c in pairs))
    for M in (F, M2, M3):
        space = OrbitSpace(M)
        assert space.count > 1 << 3 and space.count % 7
        rank = rank_table_oracle(M)
        canon = [space.take(i, M.ground.full) for i in range(space.count)]
        index = np.arange(space.count, dtype=np.uint64)
        assert space.sets(index).tolist() == canon
        ranks = space.ranks()
        assert ranks.dtype == np.uint8
        assert ranks.tolist() == [rank[x] for x in canon]
        T = tutte_polynomial(M)
        for x, y in TUTTE_POINTS:
            assert T.evaluate(x, y) == tutte_eval_oracle(M, x, y)
    assert OrbitSpace(F).radix2 and not OrbitSpace(M2).radix2


def test_multi_block_state_tables_match_the_rank_formula():
    # fig2_N^6 has strides 637 and 8281 and 157,339 states, so no stride
    # or pass of the builder is a power of two; the Fano plane's
    # 7-expansion has 2^21 states, past 2^STATE_BUDGET, whose table and
    # sets take the same row split in 32 passes
    fano = validate_axioms(
        [((), 0), (list("1234567"), 3)]
        + [(line, 2) for line in ("124", "235", "346", "457", "156",
                                  "267", "137")], list("1234567"))
    fano7 = expand(fano, 7)[0]
    assert OrbitSpace(fano7).count > 1 << cycflats.orbits.STATE_BUDGET
    for M, count in ((expand(get("fig2_N"), 6)[0], 157339),
                     (fano7, 1 << 21)):
        space = OrbitSpace(M)
        assert space.count == count and not space.radix2
        ranks = space.ranks()
        assert ranks.dtype == np.uint8 and ranks.size == count
        index = np.arange(count, dtype=np.uint64)
        assert np.array_equal(ranks, rank_of_mask_array(M, space.sets(index)))
        # the ends of every run of the two largest strides up to _CHUNK
        runs = [st for st in space.strides if st <= cycflats.core._CHUNK]
        picks = [x for st in runs[-2:] for b in range(0, count, st)
                 for x in (b, b + st - 1)]
        rng = random.Random(count)
        picks += [rng.randrange(count) for _ in range(300)]
        assert [int(ranks[x]) for x in picks] == [
            M.rank(space.take(x, M.ground.full)) for x in picks]
    # a mixed-radix table of 3^16 states is refused before it is built
    n, r = 16, 3
    F = sparse_paving(n, r, packing(combinations(range(n), r), r))
    space = OrbitSpace(expand(F, 2)[0])
    assert not space.radix2 and space.count == 3 ** 16
    with pytest.raises(BudgetExceeded):
        space.ranks()


def test_tutte_histogram_over_two_passes_matches_a_plain_loop():
    # the Fano plane's 4-expansion: 7 classes of 4 and 5^7 states, whose
    # rows of 625 states take two passes of _CHUNK // 625 rows each
    M = expand(fano(), 4)[0]
    space = OrbitSpace(M)
    B = space.rows()[0].size
    assert space.count == 5 ** 7 and B == 625
    assert space.count > (cycflats.invariants._CHUNK // B) * B
    # clones lie in the same cyclic flats, so the classes come from zee
    classes = {}
    for e in range(M.ground.n):
        key = tuple(a >> e & 1 for a, _ in M.zee)
        classes.setdefault(key, []).append(e)
    classes = list(classes.values())
    outside = [([c for c, els in enumerate(classes) if not a >> els[0] & 1],
                r) for a, r in M.zee]
    R = M.rank_total
    hist = Counter()
    for x in product(*(range(len(els) + 1) for els in classes)):
        rank = min(r + sum(x[c] for c in out) for out, r in outside)
        sets = 1
        for els, d in zip(classes, x):
            sets *= comb(len(els), d)
        hist[R - rank, sum(x) - rank] += sets
    coeffs = Counter()
    for (a, b), cnt in hist.items():
        for i in range(a + 1):
            for j in range(b + 1):
                coeffs[i, j] += (cnt * comb(a, i) * (-1) ** (a - i)
                                 * comb(b, j) * (-1) ** (b - j))
    assert tutte_polynomial(M).coeffs == {k: c for k, c in coeffs.items()
                                          if c}
    # state j*B + i has the set low[i] | high[j]: both ends of every row
    # and 300 random states of fig2_N^6 against the per-digit builder
    N = expand(get("fig2_N"), 6)[0]
    space = OrbitSpace(N)
    B = space.rows()[0].size
    picks = [x for j in range(0, space.count, B) for x in (j, j + B - 1)]
    rng = random.Random(6)
    picks += [rng.randrange(space.count) for _ in range(300)]
    index = np.array(picks, dtype=np.uint64)
    assert space.sets(index).tolist() == [
        space.take(x, N.ground.full) for x in picks]


def test_rank_tables_stop_at_the_table_budget():
    assert uniform(2, 24).rank_table().size == 1 << 24
    n, r = 25, 3
    M = sparse_paving(n, r, packing(combinations(range(n), r), r))
    assert OrbitSpace(M).radix2
    with pytest.raises(BudgetExceeded):
        tutte_polynomial(M)
    with pytest.raises(BudgetExceeded):
        M.rank_table()
    assert M._table is None
