import random
from collections import Counter
from itertools import combinations

import pytest

import cycflats.classes
import cycflats.core
from cycflats import (
    BudgetExceeded,
    GroundSet,
    HasLoops,
    InputOrderNotPositroid,
    Presentation,
    expand,
    expansion_positroid_order,
    is_positroid_order,
    positroid_search,
    presentation_matroid,
    uniform,
    validate_axioms,
    verify_presentation,
)
from cycflats.catalog import entries, get, names, presentation
from cycflats.verify import random_matroid

from oracles import (positroid_constraints_oracle, positroid_order_oracle,
                     positroid_search_oracle)


def _plane(n, lines):
    """The rank-3 matroid on 1..n whose nontrivial lines are the given
    3-point lines, written as strings of digits."""
    g = GroundSet([str(i) for i in range(1, n + 1)])
    zee = [(0, 0)] + [(g.mask_of(L), 2) for L in lines] + [(g.full, 3)]
    return validate_axioms(zee, g)


def _seven_lines():
    return _plane(7, ["123", "145", "167", "246", "257", "347", "356"])


def _random_plane(rng):
    """A plane on 6 or 7 points with random 3-point lines, pairwise
    meeting in at most one point; about half are not positroids."""
    n = rng.choice((6, 7))
    lines = []
    for T in rng.sample(list(combinations("1234567"[:n], 3)), 12):
        if all(len(set(T) & set(L)) <= 1 for L in lines):
            lines.append("".join(T))
    return _plane(n, lines)


def test_identity_orders_on_the_catalog():
    m = get("fig1_M")
    assert is_positroid_order(m, list(m.ground.labels)) == (True, None)
    f2 = get("fig2_M")
    assert is_positroid_order(f2, list(f2.ground.labels)) == (True, None)


def test_interleaved_lines_need_a_reordering():
    n = get("fig1_N")
    ok, witness = is_positroid_order(n, list(n.ground.labels))
    assert not ok
    assert witness == {"flat": ["1", "4", "5"], "component": ["2", "3", "6"]}
    # listing one line, then the free element, then the rest of the other
    assert is_positroid_order(n, ["2", "3", "1", "4", "5", "6"]) == (True,
                                                                     None)
    assert is_positroid_order(n, ["1", "2", "3", "6", "4", "5"])[0]


def test_order_must_be_a_permutation():
    m = get("fig1_M")
    with pytest.raises(ValueError):
        is_positroid_order(m, ["1", "2", "3"])
    with pytest.raises(ValueError):
        is_positroid_order(m, list(m.ground.labels) + ["1"])
    with pytest.raises(ValueError):
        is_positroid_order(m, ["1", "1", "2", "3", "4", "5"])


def test_loops_are_rejected_explicitly():
    loopy = uniform(0, 3)
    with pytest.raises(HasLoops):
        is_positroid_order(loopy, list(loopy.ground.labels))


def test_rotation_and_reversal_invariance():
    rng = random.Random(71)
    n = get("fig1_N")
    base = ["2", "3", "1", "4", "5", "6"]
    for _ in range(10):
        k = rng.randrange(6)
        rotated = base[k:] + base[:k]
        assert is_positroid_order(n, rotated)[0]
        assert is_positroid_order(n, rotated[::-1])[0]
    bad = list(n.ground.labels)
    for _ in range(6):
        k = rng.randrange(6)
        rotated = bad[k:] + bad[:k]
        assert not is_positroid_order(n, rotated)[0]
        assert not is_positroid_order(n, rotated[::-1])[0]


def test_search_finds_verified_orders():
    for name in ("fig1_M", "fig1_N", "fig2_M", "fig2_N", "fig3_M",
                 "fig3_N"):
        m = get(name)
        order, checked = positroid_search(m)
        assert order is not None
        assert checked >= 1
        assert is_positroid_order(m, order) == (True, None)


def test_search_on_uniform_takes_one_check():
    order, checked = positroid_search(uniform(2, 5))
    assert order == ["1", "2", "3", "4", "5"]
    assert checked == 1


def test_seven_line_design_is_not_a_positroid():
    # seven 3-point lines pairwise meeting in a point: every line forces a
    # cyclic arc, and seven arcs on a 7-cycle cannot pairwise share exactly
    # one position, so the search must exhaust all 360 classes
    fano = _seven_lines()
    order, checked = positroid_search(fano)
    assert order is None
    assert checked == 360
    rng = random.Random(73)
    labs = list(fano.ground.labels)
    for _ in range(12):
        rng.shuffle(labs)
        assert not is_positroid_order(fano, labs)[0]


def test_positroid_checks_match_the_oracle():
    # the arcs of each order are built literally over positions, and the
    # components of M/F come from the oracle rank table of the minor.
    # Two disjoint lines span a cyclic flat of rank 4 whose contraction
    # makes the last two elements parallel; it is not connected, so it
    # gives no constraint
    rng = random.Random(19)
    g = GroundSet([str(i) for i in range(1, 9)])
    two_lines = validate_axioms(
        [(0, 0), (g.mask_of("123"), 2), (g.mask_of("456"), 2),
         (g.mask_of("123456"), 4), (g.full, 5)], g)
    cases = [_seven_lines(), two_lines]
    cases += [_random_plane(rng) for _ in range(60)]
    seed = 0
    while len(cases) < 362:
        seed += 1
        M = random_matroid(random.Random(seed), 7)
        if not M.loops:
            cases.append(M)
    seen = Counter()
    for M in cases:
        constraints = positroid_constraints_oracle(M)
        assert cycflats.classes._arc_constraints(M) == constraints
        found = positroid_search(M)
        assert found == positroid_search_oracle(M)
        seen["not a positroid"] += found[0] is None
        labs = list(M.ground.labels)
        for order in [labs] + [rng.sample(labs, len(labs)) for _ in range(3)]:
            got = is_positroid_order(M, order)
            assert got == positroid_order_oracle(M, order, constraints)
            seen["failing order"] += not got[0]
    assert seen["not a positroid"] > 1 and seen["failing order"], seen


def test_arc_constraints_build_no_minor(monkeypatch):
    # the components of M/F are read off M's rank: no contraction is
    # built and no lattice validated
    cases = [M if t == 1 else expand(M, t)[0]
             for M in map(get, names()) for t in (1, 2, 3)]
    calls = []

    def spy(name, real):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(cycflats.core.Matroid, "_minor",
                        spy("_minor", cycflats.core.Matroid._minor))
    for module in (cycflats.core, cycflats.classes):
        monkeypatch.setattr(module, "validate_axioms",
                            spy("validate_axioms", module.validate_axioms))
    built = [cycflats.classes._arc_constraints(M) for M in cases]
    assert all(built)
    assert calls == []


def test_search_budget_is_checked_before_any_constraint(monkeypatch):
    calls = []
    monkeypatch.setattr(cycflats.classes, "_arc_constraints",
                        lambda M: calls.append(M) or [])
    with pytest.raises(BudgetExceeded):
        positroid_search(uniform(3, 10))
    assert calls == []
    positroid_search(uniform(3, 9))
    assert len(calls) == 1


def test_expansion_preserves_positroid_orders():
    for name in ("fig1_M", "fig2_M"):
        m = get(name)
        base = list(m.ground.labels)
        for t in (2, 3):
            order, mt, emap = expansion_positroid_order(m, base, t)
            assert mt.equals(expand(m, t)[0])
            assert len(order) == t * m.ground.n
            assert is_positroid_order(mt, order) == (True, None)
            # clone blocks sit consecutively in the produced order
            for lab in base:
                block = emap.blocks[lab]
                start = order.index(block[0])
                assert order[start:start + t] == list(block)


def test_expansion_rejects_unverified_base_order():
    n = get("fig1_N")
    with pytest.raises(InputOrderNotPositroid):
        expansion_positroid_order(n, list(n.ground.labels), 2)
    # but a verified base order works
    order, mt, _ = expansion_positroid_order(
        n, ["2", "3", "1", "4", "5", "6"], 2)
    assert is_positroid_order(mt, order) == (True, None)


def test_presentation_matroids_and_verification():
    for name in ("fig1_M", "fig2_M"):
        m = get(name)
        p = presentation(name)
        assert verify_presentation(m, p)
        assert presentation_matroid(p).equals(m)
    # dropping a set changes the matroid, so verification fails
    m = get("fig1_M")
    two = Presentation.from_labels([{"1", "2", "3"}, {"4", "5", "6"}],
                                   m.ground)
    assert not verify_presentation(m, two)


def test_presentation_json_round_trip():
    p = presentation("fig2_M")
    d = p.to_json_dict()
    q = Presentation.from_labels(d["sets"], d["elements"])
    assert presentation_matroid(q).equals(get("fig2_M"))


def test_presentation_sums_member_ranks_without_wrapping():
    # 256 rank-1 members: a uint8 sum of their ranks wraps to 0
    P = Presentation.from_labels([{"a"}] * 256, ["a", "b", "c"])
    M = presentation_matroid(P)
    assert M.rank_total == 1
    assert M.zee == ((M.ground.mask_of(["b", "c"]), 0),)
