import gc
import json
import os
import random
import subprocess
import sys
from itertools import islice

import pytest

from cycflats import (
    BranchDecomposition,
    InvalidTangle,
    MalformedTree,
    RankBelow,
    Tangle,
    branch_width_certified,
    branch_width_exact,
    caterpillar_decomposition,
    decomposition_width,
    displayed_sets,
    expand,
    expand_decomposition,
    fan_decomposition,
    popcount,
    rank_bounded_family,
    three_flats_cover,
    three_flats_cover_plus_two,
    uniform,
    verify_tangle,
)
from cycflats.catalog import entries, get, three_lines_tree
from cycflats.verify import run_suite

from oracles import _displayed_masks, bw_oracle, cubic_trees, lambda_oracle


def test_three_lines_tree_widths():
    t = three_lines_tree()
    assert decomposition_width(get("fig2_M"), t) == 3
    assert decomposition_width(get("fig2_N"), t) == 4


def test_exact_values_on_small_matroids():
    assert branch_width_exact(get("fig2_M"))[0] == 3
    assert branch_width_exact(get("fig2_N"))[0] == 4
    assert branch_width_exact(uniform(2, 4))[0] == 3
    assert branch_width_exact(uniform(1, 2))[0] == 2
    assert branch_width_exact(uniform(3, 4))[0] == 2
    # all loops, a single coloop, the empty matroid
    assert branch_width_exact(uniform(0, 3))[0] == 1
    assert branch_width_exact(uniform(1, 1))[0] == 1
    assert branch_width_exact(uniform(0, 0))[0] == 0


def test_branch_width_exact_leaves_no_cyclic_garbage():
    """Both engines, the bottom-up DP (fig1_M^2) and the tangle-first
    decision (fig2_N^4), recurse without reference cycles, so nothing of
    a call, its split table included, waits for the collector."""
    from cycflats.branchwidth import TANGLE_PAIRS
    from cycflats.orbits import clonal_space
    dp, tangle = expand(get("fig1_M"), 2)[0], expand(get("fig2_N"), 4)[0]
    assert clonal_space(dp).pairs <= TANGLE_PAIRS < clonal_space(tangle).pairs
    for m in (dp, tangle):
        gc.collect()
        gc.disable()
        try:
            branch_width_exact(m)
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_exact_decomposition_achieves_the_value():
    for entry in entries().values():
        m = entry.matroid
        value, deco = branch_width_exact(m)
        assert decomposition_width(m, deco) == value


# (bw(M^t), bw(N^t)) for t = 1..6
BW_OF_EXPANSIONS = {
    "fig1": [(3, 3), (4, 5), (5, 7), (7, 9), (8, 11), (9, 13)],
    "fig2": [(3, 4), (5, 6), (7, 8), (9, 11), (11, 13), (13, 15)],
    "fig3": [(3, 3), (5, 5), (7, 7), (9, 9), (11, 11), (13, 13)],
}


@pytest.mark.parametrize("fig", sorted(BW_OF_EXPANSIONS))
def test_branch_width_of_the_catalog_expansions(fig):
    # exact under the default budget up to fig2_N^6: n = 54 and 1.2e9
    # worst-case split pairs
    for t, want in enumerate(BW_OF_EXPANSIONS[fig], 1):
        got = tuple(branch_width_exact(expand(get(fig + side), t)[0])[0]
                    for side in ("_M", "_N"))
        assert got == want, (fig, t)


def test_cubic_tree_count():
    assert sum(1 for _ in cubic_trees(3)) == 1
    assert sum(1 for _ in cubic_trees(4)) == 3
    assert sum(1 for _ in cubic_trees(5)) == 15
    assert sum(1 for _ in cubic_trees(6)) == 105


def test_exact_matches_every_tree_enumeration():
    rng = random.Random(61)
    for entry in entries().values():
        m = entry.matroid
        n = m.ground.n
        for _ in range(6):
            size = rng.randrange(min(n, 6) + 1)
            keep = rng.sample(range(n), size)
            mask = 0
            for i in keep:
                mask |= 1 << i
            sub = m.delete(m.ground.full ^ mask)
            assert branch_width_exact(sub)[0] == bw_oracle(sub)


def test_branch_width_is_self_dual():
    for entry in entries().values():
        m = entry.matroid
        assert branch_width_exact(m)[0] == branch_width_exact(m.dual())[0]
    m2, _ = expand(get("fig1_M"), 2)
    assert branch_width_exact(m2)[0] == branch_width_exact(m2.dual())[0]


def test_branch_width_at_most_rank_plus_one():
    for entry in entries().values():
        m = entry.matroid
        assert branch_width_exact(m)[0] <= m.rank(m.ground.full) + 1
    for r, n in ((2, 5), (3, 7), (1, 4)):
        u = uniform(r, n)
        assert branch_width_exact(u)[0] <= r + 1


def test_displayed_sets_cover_leaf_edges():
    m = get("fig2_M")
    t = three_lines_tree()
    shown = displayed_sets(t, m)
    masks = [mask for _, mask in shown]
    lam = lambda_oracle(m)
    assert max(lam[x] + 1 for x in masks) == decomposition_width(m, t)
    n = m.ground.n
    # each leaf edge displays a singleton, possibly reported from the far side
    singles = {mask if popcount(mask) == 1 else m.ground.full ^ mask
               for mask in masks
               if popcount(mask) in (1, n - 1)}
    assert len(singles) == n
    rng = random.Random(97)
    for k in range(2, 8):
        m = uniform(2, k)
        full = m.ground.full
        for edges in islice(cubic_trees(k), 40):
            D = _tree_with_junk(edges, m.ground.labels, rng)
            shown = [mask for _, mask in displayed_sets(D, m)]
            want = _displayed_masks(edges, k)
            assert len(shown) == len(want)
            assert ({frozenset((x, full ^ x)) for x in shown}
                    == {frozenset((x, full ^ x)) for x in want})


def _tree_with_junk(edges, labels, rng):
    """The cubic tree `edges` with leaf i labeled labels[i], as a
    decomposition whose normalization has work to do: some edges are
    subdivided, small unlabeled subtrees hang off some vertices, and the
    vertex order, edge order and edge orientation are shuffled."""
    out = []
    fresh = max(map(max, edges)) + 1
    for u, v in edges:
        path = [u] + list(range(fresh, fresh + rng.randrange(3))) + [v]
        fresh += len(path) - 2
        out += zip(path, path[1:])
    for v in range(fresh):
        if rng.random() < 0.3:
            # a new unlabeled vertex with 0..2 unlabeled leaves of its own
            junk = rng.randrange(3)
            out.append((v, fresh))
            out += [(fresh, fresh + 1 + i) for i in range(junk)]
            fresh += 1 + junk
    out = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in out]
    rng.shuffle(out)
    vertices = list(range(fresh))
    rng.shuffle(vertices)
    return BranchDecomposition.build(
        ["v%d" % v for v in vertices],
        [("v%d" % a, "v%d" % b) for a, b in out],
        {lab: "v%d" % i for i, lab in enumerate(labels)})


def test_decomposition_output_ignores_the_hash_seed():
    code = (
        "import json\n"
        "from cycflats import displayed_sets, expand, expand_decomposition\n"
        "from cycflats.catalog import get, three_lines_tree\n"
        "m, t = get('fig2_M'), three_lines_tree()\n"
        "grown = expand_decomposition(t, expand(m, 2)[1])\n"
        "print(json.dumps([grown.to_json_dict(), displayed_sets(t, m)]))\n")
    outs = set()
    for seed in ("0", "1", "2"):
        proc = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONHASHSEED=seed))
        json.loads(proc.stdout)
        outs.add(proc.stdout)
    assert len(outs) == 1


def test_json_round_trip_and_normalization():
    t = three_lines_tree()
    again = BranchDecomposition.from_json_dict(t.to_json_dict())
    m = get("fig2_N")
    assert decomposition_width(m, again) == 4
    adj, labeled = again.normalized(m.ground)
    assert sorted(labeled) == sorted(m.ground.labels)
    leaves = [v for v, nb in adj.items() if len(nb) == 1]
    assert sorted(leaves) == sorted(labeled.values())


def test_unlabeled_leaves_are_tolerated():
    u = uniform(2, 4, ["1", "2", "3", "4"])
    d = BranchDecomposition.build(
        ["a", "b", "c", "d", "e", "f", "g", "h"],
        [("a", "b"), ("a", "c"), ("b", "d"), ("b", "e"), ("c", "f"),
         ("c", "g"), ("e", "h")],
        {"1": "d", "2": "f", "3": "g", "4": "h"})
    assert decomposition_width(u, d) == 3


def test_malformed_trees_are_rejected():
    u = uniform(2, 4, ["1", "2", "3", "4"])
    with pytest.raises(MalformedTree):
        decomposition_width(u, BranchDecomposition.build(
            ["a", "b", "c", "d", "e"],
            [("a", "b"), ("a", "c"), ("a", "d"), ("a", "e")],
            {"1": "b", "2": "c", "3": "d", "4": "e"}))
    with pytest.raises(MalformedTree):
        decomposition_width(u, BranchDecomposition.build(
            ["a", "b", "c", "d", "e", "f", "g"],
            [("a", "b"), ("b", "c"), ("c", "a"), ("a", "d"), ("b", "e"),
             ("c", "f"), ("c", "g")],
            {"1": "d", "2": "e", "3": "f", "4": "g"}))
    with pytest.raises(MalformedTree):
        decomposition_width(u, BranchDecomposition.build(
            ["a", "b"], [("a", "b")], {"1": "a", "2": "a", "3": "b",
                                       "4": "b"}))
    with pytest.raises(MalformedTree):
        decomposition_width(u, BranchDecomposition.build(
            ["a", "b"], [("a", "b")], {"1": "a", "2": "b"}))
    # |V| - 1 edges, but a 4-cycle with a labeled leaf on each cycle
    # vertex beside a detached unlabeled edge is not a tree
    with pytest.raises(MalformedTree, match="not connected"):
        decomposition_width(u, BranchDecomposition.from_json_dict(NON_TREE))


NON_TREE = {
    "vertices": ["a", "b", "c", "d", "e", "f", "g", "h", "x", "y"],
    "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"], ["a", "e"],
              ["b", "f"], ["c", "g"], ["d", "h"], ["x", "y"]],
    "leaf_labels": {"1": "e", "2": "f", "3": "g", "4": "h"},
}


def test_expanding_a_decomposition_scales_its_width():
    rng = random.Random(67)
    for name in ("fig1_M", "fig1_N", "fig2_M", "fig2_N"):
        m = get(name)
        _, best = branch_width_exact(m)
        w = decomposition_width(m, best)
        labels = list(m.ground.labels)
        rng.shuffle(labels)
        cat = caterpillar_decomposition(labels)
        wc = decomposition_width(m, cat)
        for t in (2, 3):
            mt, emap = expand(m, t)
            for deco, width in ((best, w), (cat, wc)):
                grown = expand_decomposition(deco, emap)
                assert decomposition_width(mt, grown) == t * (width - 1) + 1


def test_rank_bounded_tangles_on_the_nine_element_pair():
    m = get("fig2_M")
    ok, wit = verify_tangle(m, Tangle(3, rank_bounded_family(m, 2)))
    assert ok and wit is None
    # order 4 fails: the three lines are a low-rank cover of the ground set
    ok4, wit4 = verify_tangle(m, Tangle(4, rank_bounded_family(m, 3)))
    assert not ok4
    assert wit4["axiom"] == "T3"
    assert sorted(tuple(s) for s in wit4["sets"]) == [
        ("1", "2", "3"), ("4", "5", "6"), ("7", "8", "9")]

    n = get("fig2_N")
    ok_n, wit_n = verify_tangle(n, Tangle(4, rank_bounded_family(n, 3)))
    assert ok_n and wit_n is None
    ok5, wit5 = verify_tangle(n, Tangle(5, rank_bounded_family(n, 4)))
    assert not ok5 and wit5 is not None


def test_empty_rank_below_families_answer_as_the_empty_explicit_family():
    # {X : r(X) < c} is empty for c <= 0: no member bounds T3, so order 1
    # holds, and at order 2 both families leave out the empty set (T2)
    for m in (get("fig2_N"), uniform(0, 3), uniform(2, 4)):
        for c in (0, -1):
            assert verify_tangle(m, Tangle(1, RankBelow(c))) == (True, None)
            assert verify_tangle(m, Tangle(1, ())) == (True, None)
            ok, wit = verify_tangle(m, Tangle(2, RankBelow(c)))
            assert (ok, wit) == verify_tangle(m, Tangle(2, ()))
            assert not ok and wit["axiom"] == "T2" and wit["set"] == []


def test_explicit_member_tangle_and_tampering():
    u = uniform(2, 6)
    small = tuple(x for x in range(1 << 6) if popcount(x) <= 1)
    ok, wit = verify_tangle(u, Tangle(3, small))
    assert ok and wit is None
    # dropping one singleton breaks the covering axiom for some split
    broken = tuple(x for x in small if x != 1)
    ok2, wit2 = verify_tangle(u, Tangle(3, broken))
    assert not ok2 and wit2 is not None


def test_explicit_cover_through_a_member_containing_the_rest():
    # with E a member, E, E and any member cover E; the rest of E after
    # E and E is empty, not a member, and only lies inside members
    u = uniform(2, 6)
    members = tuple(1 << i for i in range(6)) + (u.ground.full,)
    ok, wit = verify_tangle(u, Tangle(3, members))
    assert not ok and wit["axiom"] == "T3"
    sets = [u.ground.mask_of(s) for s in wit["sets"]]
    assert all(s in members for s in sets)
    assert sets[0] | sets[1] | sets[2] == u.ground.full


def test_low_rank_sets_belong_to_every_valid_tangle():
    u = uniform(2, 6)
    small = tuple(x for x in range(1 << 6) if popcount(x) <= 1)
    ok, _ = verify_tangle(u, Tangle(3, small))
    assert ok
    members = set(small)
    table = u.rank_table()
    for x in range(1 << 6):
        if table[x] < 2:
            assert x in members


def test_rank_bound_argument_is_validated():
    m = get("fig2_M")
    with pytest.raises(ValueError):
        rank_bounded_family(m, 0)
    with pytest.raises(ValueError):
        rank_bounded_family(m, m.rank(m.ground.full) + 2)
    assert rank_bounded_family(m, 3).describe() == "rank-lt:3"


def test_certified_width_when_bounds_meet():
    t = three_lines_tree()
    m = get("fig2_M")
    cert = branch_width_certified(m, t, Tangle(3, rank_bounded_family(m, 2)))
    assert cert.value == 3
    assert cert.exact
    d = cert.to_json_dict()
    assert d["bounds"] == [3, 3]

    n = get("fig2_N")
    cert_n = branch_width_certified(
        n, t, Tangle(4, rank_bounded_family(n, 3)))
    assert cert_n.value == 4 and cert_n.exact


def test_certified_width_rejects_invalid_lower_bound():
    m = get("fig2_M")
    with pytest.raises(InvalidTangle):
        branch_width_certified(m, three_lines_tree(),
                               Tangle(4, rank_bounded_family(m, 3)))


def test_certificate_with_a_gap_is_not_exact():
    # width-4 caterpillar on the three-line matroid vs an order-3 tangle
    m = get("fig2_M")
    labels = ["1", "4", "7", "2", "5", "8", "3", "6", "9"]
    cat = caterpillar_decomposition(labels)
    w = decomposition_width(m, cat)
    cert = branch_width_certified(m, cat,
                                  Tangle(3, rank_bounded_family(m, 2)))
    assert cert.to_json_dict()["bounds"] == [3, w]
    assert cert.exact == (w == 3)


def test_doubled_pair_certificates():
    mt, emap_m = expand(get("fig2_M"), 2)
    _, deco_m = branch_width_exact(get("fig2_M"))
    upper_m = expand_decomposition(deco_m, emap_m)
    cert_m = branch_width_certified(
        mt, upper_m, Tangle(5, rank_bounded_family(mt, 4)))
    assert cert_m.value == 5 and cert_m.exact

    nt, emap_n = expand(get("fig2_N"), 2)
    blocks = emap_n.blocks
    free = list(blocks["1"])
    arm1 = [x for lab in ("2", "3", "4") for x in blocks[lab]]
    arm1 += free[:1]
    arm2 = [x for lab in ("5", "6") for x in blocks[lab]] + free[1:]
    arm3 = [x for lab in ("7", "8", "9") for x in blocks[lab]]
    fan = fan_decomposition([arm1, arm2, arm3])
    assert decomposition_width(nt, fan) == 6
    cert_n = branch_width_certified(
        nt, fan, Tangle(6, rank_bounded_family(nt, 5)))
    assert cert_n.value == 6 and cert_n.exact
    # strictly below the scaled upper bound of the doubling construction
    assert cert_n.value < 2 * (4 - 1) + 1


def test_three_flats_cover_examples():
    ok, flats = three_flats_cover_plus_two(get("fig2_M"))
    assert ok
    m = get("fig2_M")
    union = 0
    for f in flats:
        fm = m.ground.mask_of(f)
        assert m.is_flat(fm) and fm != m.ground.full
        union |= fm
    assert popcount(m.ground.full ^ union) <= 2
    assert three_flats_cover_plus_two(get("fig2_N"))[0]
    assert three_flats_cover_plus_two(get("fig1_N"))[0]
    assert three_flats_cover_plus_two(uniform(2, 9)) == (False, None)
    assert three_flats_cover(get("fig2_M"), 0)[0]
    assert not three_flats_cover(uniform(2, 4), 0)[0]


def test_cover_tracks_branch_width_versus_rank_on_small_cases():
    # coloop-free spot checks of the cover criterion
    for m in (uniform(2, 4), uniform(2, 9), uniform(3, 4), get("fig2_M"),
              get("fig1_M"), get("fig1_N")):
        covered, _ = three_flats_cover(m, 0)
        bw = branch_width_exact(m)[0]
        r = m.rank(m.ground.full)
        assert covered == (bw <= r)


@pytest.mark.parametrize("budget, checks", [(11, 7), (12, 8)])
def test_bw_suite_runs_the_exact_rows_that_fit_the_budget(budget, checks):
    # split pairs: 21,952 for fig2_M^2 (over 3^9) and 226,800 for
    # fig2_N^2 (over 3^11)
    rep = run_suite("bw", exact_budget=budget)
    assert rep.passed and len(rep.checks) == checks
