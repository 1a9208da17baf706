"""Minors, components and unions built on the lattice, against the
independent oracles: cyclic flats read off oracle rank tables, separators
of the oracle lambda table and the minimum formula of the union rank."""

import random
from collections import Counter

import pytest
import cycflats.expansion
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cycflats import (BudgetExceeded, GroundSet, Matroid, Presentation,
                      expand, expand_via_union, matroid_union,
                      presentation_matroid, uniform, validate_axioms)
from cycflats.catalog import get, names
from cycflats.classes import rank_one
from cycflats.verify import random_matroid

from oracles import (components_oracle, connected_flats_oracle,
                     minor_components_oracle, minor_oracle,
                     rank_table_oracle, union_rank_oracle)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.filter_too_much])


@st.composite
def expansions(draw, max_n=12):
    """A seeded random matroid on <= 8 elements or one of its 2- or
    3-expansions, with at most max_n elements."""
    t = draw(st.sampled_from([1, 2, 3]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    M = random_matroid(rng, min(8, max_n // t))
    return M if t == 1 else expand(M, t)[0]


def subset(draw, n, within=None):
    x = draw(st.integers(0, (1 << n) - 1))
    return x if within is None else x & within


def family(M):
    return {(frozenset(M.ground.labels_of(a)), r) for a, r in M.zee}


def clone_rich(M):
    return len(M.clonal_classes()) < M.ground.n


def test_minors_match_the_oracle():
    seen = Counter()

    @SETTINGS
    @given(expansions(), st.data())
    def check(M, data):
        n = M.ground.n
        d = subset(data.draw, n)
        c = subset(data.draw, n, ~d)
        kind = data.draw(st.sampled_from(["delete", "contract", "mixed"]))
        if kind == "delete":
            c = 0
            got = M.delete(d)
        elif kind == "contract":
            d = 0
            got = M.contract(c)
        else:
            got = M.minor(d, c)
        assert family(got) == minor_oracle(M, d, c)
        gone = d | c
        assert got.ground.labels == tuple(
            M.ground.labels[i] for i in range(n) if not gone >> i & 1)
        if kind == "contract":
            # M/X = (M* \ X)*
            assert got.equals(M.dual().delete(c).dual())
        seen[kind] += 1
        if clone_rich(M):
            seen["clone-rich"] += 1
        if got.loops:
            seen["looped"] += 1
        if len(got.components()) > 1:
            seen["disconnected"] += 1

    check()
    assert all(seen[k] for k in ("delete", "contract", "mixed", "clone-rich",
                                 "looped", "disconnected")), seen


def test_components_and_connected_flats_match_the_oracle():
    seen = Counter()

    @SETTINGS
    @given(expansions(max_n=10), st.data())
    def check(M, data):
        n = M.ground.n
        d = subset(data.draw, n)
        c = subset(data.draw, n, ~d)
        N = M.minor(d, c) if data.draw(st.booleans()) else M
        assert N.components() == components_oracle(N)
        # components of (N / X) | mask, read off N's rank; X is seldom a
        # flat, so N / X often has loops
        k, full = N.ground.n, N.ground.full
        rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
        for _ in range(4):
            X = rng.getrandbits(k)
            mask = full & ~X & rng.choice([full, rng.getrandbits(k)])
            got = N._components(mask, X)
            assert got == minor_components_oracle(N, full & ~(mask | X), X)
            if mask & N.closure(X) & ~X & ~N.loops:
                seen["quotient loops"] += 1
            if got != N._components(mask):
                seen["quotient joins or splits"] += 1
        if N.loops:
            seen["looped"] += 1
        else:
            for proper in (True, False):
                got = N.connected_flats(proper=proper)
                assert set(got) == connected_flats_oracle(N, proper)
                assert len(got) == len(set(got))
        if clone_rich(N):
            seen["clone-rich"] += 1
        if len(N.components()) > 1:
            seen["disconnected"] += 1

    check()
    assert all(seen[k] for k in ("clone-rich", "looped", "disconnected",
                                 "quotient loops",
                                 "quotient joins or splits")), seen


def test_catalog_components_and_connected_flats():
    for name in names():
        for t in (1, 2):
            M = get(name) if t == 1 else expand(get(name), t)[0]
            assert M.components() == components_oracle(M)
            if not M.loops and M.ground.n <= 12:
                assert set(M.connected_flats()) == connected_flats_oracle(M)


def common_classes(members, n):
    parts = [(1 << n) - 1]
    for Mi in members:
        for a, _ in Mi.zee:
            parts = [p for q in parts for p in (q & a, q & ~a) if p]
    return parts


@st.composite
def union_members(draw):
    """Members on one ground set of <= 8 elements: the rank-1 pieces of
    a random presentation, or random matroids moved onto the ground."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 8))
    ground = GroundSet([str(i + 1) for i in range(n)])
    k = draw(st.integers(1, 6))
    if draw(st.booleans()):
        return [rank_one(ground, rng.getrandbits(n)) for _ in range(k)]
    members = []
    while len(members) < min(k, 3):
        Mi = random_matroid(rng, n)
        if Mi.ground.n == n:
            members.append(Matroid(ground, Mi.zee))
    return members


def test_unions_match_the_rank_oracle():
    seen = Counter()

    @SETTINGS
    @given(union_members(), st.data())
    def check(members, data):
        n = members[0].ground.n
        U = matroid_union(members)
        xs = range(1 << n) if n <= 6 else [
            subset(data.draw, n) for _ in range(12)] + [(1 << n) - 1]
        for x in xs:
            assert U.rank(x) == union_rank_oracle(members, x)
        if len(common_classes(members, n)) == n:
            seen["clone-free"] += 1
        else:
            seen["clone-rich"] += 1
        if U.loops:
            seen["looped"] += 1

    check()
    assert all(seen[k] for k in ("clone-free", "clone-rich", "looped")), seen


def test_expand_via_union_matches_expand():
    seen = Counter()

    @SETTINGS
    @given(union_members(), st.sampled_from([1, 2, 3]))
    def check(members, t):
        M = matroid_union(members)
        got = expand_via_union(M, members, t)
        assert got.equals(expand(M, t)[0])
        seen[t] += 1
        if M.loops:
            seen["looped"] += 1

    check()
    assert all(seen[k] for k in (1, 2, 3, "looped")), seen


@SETTINGS
@given(union_members(), st.sampled_from([2, 3]))
def test_parallel_extensions_match_the_oracle(members, t):
    # the rank of X in the extension is the member's rank of the base
    # elements whose block meets X
    Mi = members[0]
    assume(Mi.ground.n * t <= 12)
    emap = expand(Mi, t)[1]
    ext = cycflats.expansion._parallel_extension(Mi, emap)
    assert validate_axioms(ext.zee, ext.ground).zee == ext.zee
    base = rank_table_oracle(Mi)
    rank = rank_table_oracle(ext)
    for x in range(1 << ext.ground.n):
        hit = sum(1 << i for i, blk in enumerate(emap.block_masks)
                  if blk & x)
        assert rank[x] == base[hit]


def test_clone_free_union_budget_is_two_to_the_twenty_states(monkeypatch):
    # 21 singleton sets present the free matroid: 21 one-element classes
    ground = GroundSet([str(i + 1) for i in range(21)])
    with pytest.raises(BudgetExceeded):
        presentation_matroid(Presentation(ground, tuple(
            1 << i for i in range(21))))
    # U(2, 21) is one class, but its parallel extension splits it into
    # 21 closure classes: 2^21 class unions, refused before any flat is
    # listed
    U = uniform(2, 21)

    def listed(Mi, emap):
        raise AssertionError("flats listed before the state budget")

    monkeypatch.setattr(cycflats.expansion, "_parallel_extension", listed)
    with pytest.raises(BudgetExceeded):
        expand_via_union(U, [U], 2)


def test_clone_rich_unions_run_on_their_class_unions():
    # 13 doubled singletons: 3^13 count vectors, but 2^13 class unions
    small = GroundSet([str(i + 1) for i in range(13)])
    members = [rank_one(small, 1 << i) for i in range(13)]
    M = matroid_union(members)
    assert M.rank_total == 13
    assert expand_via_union(M, members, 2).equals(expand(M, 2)[0])


@st.composite
def dual_samples(draw):
    """A random matroid, a t-expansion of one, or a catalog entry or its
    expansion."""
    if draw(st.booleans()):
        return draw(expansions(max_n=24))
    M = get(draw(st.sampled_from(names())))
    t = draw(st.integers(1, 4))
    return M if t == 1 else expand(M, t)[0]


@SETTINGS
@given(dual_samples())
def test_dual_families_satisfy_the_axioms(M):
    D = M.dual()
    assert validate_axioms(D.zee, D.ground).zee == D.zee
    assert D.rank_total == M.ground.n - M.rank_total
    DD = D.dual()
    assert DD.zee == M.zee and DD.equals(M)
