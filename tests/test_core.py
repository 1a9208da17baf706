import json
import random
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

import cycflats.core
from cycflats import (
    GroundSet,
    Matroid,
    Z0Violation,
    Z1Violation,
    Z2Violation,
    Z3Violation,
    from_json_dict,
    popcount,
    uniform,
    validate_axioms,
)
from cycflats.core import _CHUNK, is_uniform, rank_of_mask_array
from cycflats.catalog import get
from cycflats.verify import random_matroid

from oracles import rank_table_oracle, zee_oracle


def _m(labels, flats):
    g = GroundSet(labels)
    zee = [(g.mask_of(s), r) for s, r in flats]
    return validate_axioms(zee, g)


def test_popcount_small_values():
    assert popcount(0) == 0
    assert popcount(0b1011) == 3
    assert popcount((1 << 40) - 1) == 40


def test_ground_set_masks_round_trip():
    g = GroundSet(["a", "b", "c"])
    m = g.mask_of({"a", "c"})
    assert m == 0b101
    assert g.labels_of(m) == ("a", "c")
    with pytest.raises(ValueError):
        g.mask_of({"z"})


def test_ground_set_rejects_duplicates_and_oversize():
    with pytest.raises(ValueError):
        GroundSet(["a", "a"])
    with pytest.raises(ValueError):
        GroundSet([str(i) for i in range(63)])


def test_validate_accepts_uniform():
    m = _m("abcd", [(set(), 0), (set("abcd"), 2)])
    assert m.rank(m.ground.full) == 2
    assert is_uniform(m) == (2, 4)


def test_validate_rejects_nonzero_least_rank():
    with pytest.raises(Z1Violation):
        _m("ab", [(set("ab"), 1)])


def test_validate_rejects_rank_jump():
    # two new elements cannot raise the rank by three
    with pytest.raises(Z2Violation):
        _m("ab", [(set(), 0), (set("ab"), 2)])


def test_validate_rejects_missing_join():
    # least and greatest members absent
    with pytest.raises(Z0Violation):
        _m("abcd", [(set("ab"), 1), (set("cd"), 1)])


def test_validate_rejects_two_lines_sharing_two_points():
    # r(join) + r(meet) + |intersection - meet| exceeds r(A) + r(B)
    with pytest.raises(Z3Violation):
        _m("123456", [(set(), 0), (set("1234"), 2), (set("3456"), 2),
                      (set("123456"), 3)])


def test_rank_hand_values_two_lines_meeting_in_a_point():
    n = get("fig1_N")
    g = n.ground
    assert n.rank(g.mask_of({"4", "5", "6"})) == 3
    assert n.rank(g.mask_of({"1", "4", "5"})) == 2
    assert n.rank(g.mask_of({"2", "3"})) == 2
    assert n.rank(g.mask_of({"1"})) == 1
    assert n.rank(0) == 0
    assert n.rank(g.full) == 3


def test_rank_table_matches_independence_oracle_on_catalog():
    for name in ("fig1_M", "fig1_N", "fig3_N"):
        m = get(name)
        table = m.rank_table()
        oracle = rank_table_oracle(m)
        assert list(table) == oracle


def paving_with_loop_and_coloop(seed, n, r=4, k=40):
    """A clone-free matroid on n elements: a sparse paving matroid of
    rank r on n - 2 of them, with k circuit-hyperplanes packed greedily
    in seeded order, plus a loop and a coloop at seeded positions."""
    rng = random.Random(seed)
    loop, coloop = rng.sample(range(n), 2)
    rest = [i for i in range(n) if i not in (loop, coloop)]
    cands = [sum(1 << rest[i] for i in c)
             for c in combinations(range(n - 2), r)]
    rng.shuffle(cands)
    chs = []
    for c in cands:
        if all(popcount(c & h) <= r - 2 for h in chs):
            chs.append(c)
            if len(chs) == k:
                break
    top = sum(1 << i for i in rest)
    flats = [(1 << loop, 0), (top | 1 << loop, r)]
    flats += [(h | 1 << loop, r - 1) for h in chs]
    return validate_axioms(flats, GroundSet([str(i) for i in range(n)]))


def test_multi_block_rank_tables_match_the_mask_kernel_and_rank():
    # tables of 2 to 16 blocks of _CHUNK masks, each checked whole against
    # the plain kernel and at the ends of every block against the rank
    # formula of single sets
    for n in (17, 18, 19, 20):
        M = paving_with_loop_and_coloop(n, n)
        assert M.loops and M.coloops and len(M.clonal_classes()) == n
        table = M.rank_table()
        assert table.dtype == np.uint8 and table.size == 1 << n
        masks = np.arange(1 << n, dtype=np.uint64)
        assert np.array_equal(table, rank_of_mask_array(M, masks))
        rng = random.Random(n)
        ends = [x for b in range(0, 1 << n, _CHUNK)
                for x in (b, b + _CHUNK - 1)]
        picks = ends + [rng.randrange(1 << n) for _ in range(300)]
        assert len(ends) == 2 * (1 << n) // _CHUNK >= 4
        assert [int(table[x]) for x in picks] == [M.rank(x) for x in picks]


def test_rank_tables_on_zero_and_one_elements():
    empty = validate_axioms([(0, 0)], GroundSet([]))
    assert empty.rank_table().tolist() == [0]
    assert uniform(0, 1).rank_table().tolist() == [0, 0]
    assert uniform(1, 1).rank_table().tolist() == [0, 1]


def _tables(M):
    """The rank table of a fresh copy of M and the members it sets
    alone."""
    M = Matroid(M.ground, M.zee)
    return M.rank_table(), cycflats.core._alone(M, 1 << M.ground.n)


@pytest.mark.parametrize("scatter", [1, 1 << 40])
def test_rank_tables_match_the_oracles_whichever_members_are_set_alone(
        scatter, monkeypatch):
    # SCATTER 1 sets every circuit-hyperplane of a matroid without loops
    # or coloops alone, 1 << 40 none
    monkeypatch.setattr(cycflats.core, "SCATTER", scatter)
    seen = Counter()
    for seed in range(60):
        M = random_matroid(random.Random(seed), 11)
        for X in (M, M.dual()):
            table, alone = _tables(X)
            masks = np.arange(1 << X.ground.n, dtype=np.uint64)
            assert table.tolist() == rank_table_oracle(X)
            assert np.array_equal(table, rank_of_mask_array(X, masks))
            seen["loops"] += bool(X.loops)
            seen["coloops"] += bool(X.coloops)
            seen["alone"] += len(alone)
    assert seen["loops"] and seen["coloops"]
    assert (seen["alone"] > 0) == (scatter == 1)


def test_members_set_alone_beat_both_ends_on_their_own_set_alone(
        monkeypatch):
    # a member between the least B and the greatest T is set alone
    # exactly when the sets X with r(A) + |X - A| below both
    # r(T) + |X - T| and r(B) + |X - B| are A alone
    monkeypatch.setattr(cycflats.core, "SCATTER", 1)
    listed = 0
    for seed in range(60):
        M = random_matroid(random.Random(seed), 9)
        P = paving_with_loop_and_coloop(seed, 9, 3, 6)
        for X in (M, M.dual(), P, P.delete(P.loops | P.coloops)):
            (least, r0), (top, rt) = X.zee[0], X.zee[-1]
            single = {a for a, r in X.zee[1:-1] if [
                x for x in range(1 << X.ground.n)
                if r + popcount(x & ~a) < min(rt + popcount(x & ~top),
                                              r0 + popcount(x & ~least))
            ] == [a]}
            assert _tables(X)[1] == single
            listed += len(single)
    assert listed >= 200


def test_single_member_tables_set_nothing_alone(monkeypatch):
    # U(0, n) and U(n, n): the least member is the greatest
    monkeypatch.setattr(cycflats.core, "SCATTER", 1)
    for n in range(7):
        for M in (uniform(0, n), uniform(n, n)):
            table, alone = _tables(M)
            assert len(M.zee) == 1 and not alone
            assert table.tolist() == rank_table_oracle(M)


@pytest.mark.parametrize("with_ends", [False, True])
def test_sparse_paving_tables_with_every_member_each_way(with_ends,
                                                         monkeypatch):
    # without loops and coloops every circuit-hyperplane is set alone at
    # SCATTER 1 and none at 1 << 40; a loop and a coloop widen each
    # circuit-hyperplane's sets to four, and every member is in the passes
    n, r = 13, 4
    M = paving_with_loop_and_coloop(5, n, r)
    if not with_ends:
        M = M.delete(M.loops | M.coloops)
        n -= 2
    masks = np.arange(1 << n, dtype=np.uint64)
    tables = []
    for scatter in (1, 1 << 40):
        monkeypatch.setattr(cycflats.core, "SCATTER", scatter)
        table, alone = _tables(M)
        assert np.array_equal(table, rank_of_mask_array(M, masks))
        tables.append(table)
        assert alone == ({h for h, _ in M.zee[1:-1]}
                         if scatter == 1 and not with_ends else set())
    assert len(M.zee) == 30
    assert np.array_equal(*tables)


def test_rank_is_min_over_cyclic_sets_and_superfamilies():
    # the minimum formula is insensitive to (a) widening the family from
    # cyclic flats to all cyclic sets, (b) adding arbitrary correct pairs
    rng = random.Random(7)
    for name in ("fig1_M", "fig1_N", "fig3_M", "fig3_N"):
        m = get(name)
        n = m.ground.n
        oracle = rank_table_oracle(m)
        # a set is cyclic iff its restriction has no coloops
        cyclic_sets = [a for a in range(1 << n)
                       if all(oracle[a ^ (1 << i)] == oracle[a]
                              for i in range(n) if a >> i & 1)]
        for _ in range(50):
            x = rng.randrange(1 << n)
            best = min(oracle[a] + popcount(x & ~a)
                       for a in cyclic_sets if a & x == a)
            assert best == m.rank(x) == oracle[x]
        # superfamily: throw in random non-cyclic-flat pairs
        family = list(m.zee)
        for _ in range(10):
            a = rng.randrange(1 << n)
            family.append((a, oracle[a]))
        for _ in range(50):
            x = rng.randrange(1 << n)
            best = min(r + popcount(x & ~a) for a, r in family)
            assert best == m.rank(x)


def test_rank_unit_increase_and_submodularity():
    rng = random.Random(3)
    for name in ("fig1_N", "fig2_M"):
        m = get(name)
        n = m.ground.n
        for _ in range(200):
            x = rng.randrange(1 << n)
            e = 1 << rng.randrange(n)
            rx = m.rank(x)
            assert rx <= m.rank(x | e) <= rx + 1
            y = rng.randrange(1 << n)
            assert m.rank(x | y) + m.rank(x & y) <= rx + m.rank(y)


def test_closure_and_flats():
    m = get("fig1_M")
    g = m.ground
    line = g.mask_of({"1", "2", "3"})
    assert m.closure(g.mask_of({"1", "2"})) == line
    assert m.closure(line) == line
    assert m.is_flat(line)
    assert not m.is_flat(g.mask_of({"1", "2"}))
    # a spanning set closes to everything
    assert m.closure(g.mask_of({"1", "4", "2"})) == g.full


def test_cyclic_flats_round_trip_exactly():
    for name in ("fig1_M", "fig1_N", "fig2_M", "fig2_N", "fig3_N"):
        m = get(name)
        found = sorted(a for a in range(1 << m.ground.n)
                       if m.is_flat(a) and m.is_cyclic(a))
        assert found == sorted(a for a, _ in m.zee)


def test_dual_hand_values_and_involution():
    m = get("fig1_M")
    assert m.dual().equals(m)  # two disjoint lines in rank 3 are self-dual
    u = uniform(1, 3)
    assert u.dual().equals(uniform(2, 3))
    for name in ("fig1_N", "fig2_M", "fig2_N", "fig3_N"):
        mm = get(name)
        assert mm.dual().dual().equals(mm)


def test_dual_rank_function():
    m = get("fig2_N")
    d = m.dual()
    full = m.ground.full
    for x in range(0, 1 << m.ground.n, 7):
        assert d.rank(x) == popcount(x) + m.rank(full ^ x) - m.rank(full)


def test_lambda_symmetry_and_dual_invariance():
    for name in ("fig1_M", "fig1_N", "fig2_M", "fig2_N"):
        m = get(name)
        d = m.dual()
        lam = m.lam_table()
        lam_d = d.lam_table()
        full = m.ground.full
        for x in range(1 << m.ground.n):
            assert lam[x] == lam[full ^ x]
            assert lam[x] == lam_d[x]


def test_loops_and_coloops():
    g = GroundSet(["a", "b", "c"])
    zee = [(g.mask_of({"a"}), 0), (g.mask_of({"a", "b", "c"}), 1)]
    m = validate_axioms(zee, g)
    assert m.loops == g.mask_of({"a"})
    assert m.coloops == 0
    free = uniform(3, 3)
    assert free.coloops == free.ground.full
    assert free.loops == 0


def test_delete_contract_hand_values():
    n = get("fig1_N")
    g = n.ground
    # deleting 6 leaves two lines meeting in the point 1
    d = n.delete(g.mask_of({"6"}))
    gd = d.ground
    assert d.ground.labels == ("1", "2", "3", "4", "5")
    assert d.rank(gd.full) == 3
    assert d.rank(gd.mask_of({"1", "4", "5"})) == 2
    # contracting the common point drops both lines to parallel classes
    c = n.contract(g.mask_of({"1"}))
    gc = c.ground
    assert c.rank(gc.full) == 2
    assert c.rank(gc.mask_of({"2", "3"})) == 1
    assert c.rank(gc.mask_of({"4", "5"})) == 1
    assert c.rank(gc.mask_of({"2", "4"})) == 2


def test_minors_match_rank_oracle():
    rng = random.Random(11)
    m = get("fig2_M")
    g = m.ground
    oracle = rank_table_oracle(m)
    full = g.full
    for _ in range(25):
        dmask = rng.randrange(1 << g.n)
        cmask = rng.randrange(1 << g.n) & ~dmask
        minor = m.minor(dmask, cmask)
        keep = full ^ dmask ^ cmask
        for _ in range(20):
            x = rng.randrange(1 << g.n) & keep
            expect = oracle[x | cmask] - oracle[cmask]
            assert minor.rank(minor.ground.mask_of(g.labels_of(x))) == expect


def test_minor_of_minor_composes():
    m = get("fig2_N")
    g = m.ground
    step = m.delete(g.mask_of({"9"}))
    a = step.contract(step.ground.mask_of({"4"}))
    b = m.minor(g.mask_of({"9"}), g.mask_of({"4"}))
    assert a.equals(b)


def test_components_and_connectivity():
    m = get("fig1_M")
    assert m.is_connected()  # two disjoint lines still hang together in rank 3
    g = GroundSet(["1", "2", "3", "4"])
    zee = [(0, 0), (g.mask_of({"1", "2"}), 1), (g.mask_of({"3", "4"}), 1),
           (g.full, 2)]
    two_pairs = validate_axioms(zee, g)
    assert not two_pairs.is_connected()
    comps = two_pairs.components()
    assert sorted(comps) == sorted([g.mask_of({"1", "2"}),
                                    g.mask_of({"3", "4"})])


def test_connected_flats_of_two_lines_meeting_in_a_point():
    n = get("fig1_N")
    g = n.ground
    got = set(n.connected_flats(proper=True))
    expect = set()
    for lab in g.labels:
        expect.add(g.mask_of({lab}))
    expect.add(g.mask_of({"1", "2", "3"}))
    expect.add(g.mask_of({"1", "4", "5"}))
    assert got == expect


def test_clonal_classes_hand_values():
    n = get("fig1_N")
    g = n.ground
    classes = n.clonal_classes()
    as_sets = sorted(tuple(sorted(g.labels_of(c))) for c in classes)
    assert as_sets == [("1",), ("2", "3"), ("4", "5"), ("6",)]
    m = get("fig1_M")
    classes_m = sorted(tuple(sorted(m.ground.labels_of(c)))
                       for c in m.clonal_classes())
    assert classes_m == [("1", "2", "3"), ("4", "5", "6")]


def test_clone_pairs_survive_minors_containing_both():
    rng = random.Random(5)
    for name in ("fig1_M", "fig1_N", "fig3_N"):
        m = get(name)
        g = m.ground
        pairs = []
        for c in m.clonal_classes():
            labs = g.labels_of(c)
            for i in range(len(labs)):
                for j in range(i + 1, len(labs)):
                    pairs.append((labs[i], labs[j]))
        for a, b in pairs:
            keep = g.mask_of({a, b})
            for _ in range(10):
                dmask = rng.randrange(1 << g.n) & ~keep
                cmask = rng.randrange(1 << g.n) & ~keep & ~dmask
                minor = m.minor(dmask, cmask)
                mg = minor.ground
                cls = minor.clonal_classes()
                am = mg.mask_of({a})
                bm = mg.mask_of({b})
                assert any(c & am and c & bm for c in cls)


def test_relabel_and_equals():
    m = get("fig1_M")
    swapped = m.relabel({"1": "x", "2": "2", "3": "3", "4": "4",
                         "5": "5", "6": "6"})
    assert swapped.ground.labels.count("x") == 1
    assert not swapped.equals(m)
    back = swapped.relabel({"x": "1", "2": "2", "3": "3", "4": "4",
                            "5": "5", "6": "6"})
    assert back.equals(m)


def test_json_round_trip_bit_exact():
    for name in ("fig1_M", "fig2_N", "fig3_N"):
        m = get(name)
        blob = json.dumps(m.to_json_dict(), sort_keys=True)
        again = from_json_dict(json.loads(blob))
        assert again.equals(m)
        assert json.dumps(again.to_json_dict(), sort_keys=True) == blob


def test_uniform_matroid_shapes():
    loops = uniform(0, 3)
    assert loops.loops == loops.ground.full
    free = uniform(3, 3)
    assert free.zee == ((0, 0),)
    u = uniform(2, 4)
    assert u.rank(0b0011) == 2
    assert u.rank(0b0001) == 1
    with pytest.raises(ValueError):
        uniform(5, 4)


def test_zee_from_rank_table_recovers_lattice():
    for name in ("fig1_N", "fig2_M"):
        m = get(name)
        zee = zee_oracle(rank_table_oracle(m), m.ground.n)
        rebuilt = validate_axioms(zee, m.ground)
        assert rebuilt.equals(m)
