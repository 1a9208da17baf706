import random

import pytest

from cycflats import (
    DecompositionMismatch,
    GroundSet,
    NotATExpansion,
    Presentation,
    deflate,
    deflate_with_map,
    expand,
    expand_presentation,
    expand_via_union,
    matroid_union,
    popcount,
    presentation_matroid,
    uniform,
    validate_axioms,
)
from cycflats.catalog import entries, get, presentation

from oracles import rank_table_oracle, union_rank_oracle


def test_clone_doubling_of_a_parallel_pair_is_uniform():
    mt, emap = expand(uniform(1, 2), 2)
    assert mt.ground.labels == ("1", "1#1", "2", "2#1")
    assert mt.equals(uniform(2, 4, mt.ground.labels))
    assert emap.blocks == {"1": ("1", "1#1"), "2": ("2", "2#1")}


def test_expansion_keeps_original_labels_in_place():
    m = get("fig1_N")
    mt, emap = expand(m, 3)
    for lab in m.ground.labels:
        assert emap.blocks[lab][0] == lab
        assert len(emap.blocks[lab]) == 3
    assert mt.ground.n == 18
    assert mt.rank(mt.ground.full) == 9


def test_rank_scaling_on_random_subsets():
    rng = random.Random(23)
    for name in ("fig1_M", "fig1_N", "fig2_N", "fig3_M"):
        m = get(name)
        n = m.ground.n
        for t in (2, 3):
            mt, emap = expand(m, t)
            for _ in range(60):
                x = rng.randrange(1 << n)
                sx = emap.s_mask(x)
                assert mt.rank(sx) == t * m.rank(x)


def test_partial_blocks_add_free_rank():
    # a block short of one copy still lifts the rank by its size
    m = get("fig1_M")
    mt, emap = expand(m, 3)
    g = m.ground
    line = emap.s_mask(m.ground.mask_of({"1", "2", "3"}))
    one_copy = mt.ground.mask_of({"4"})
    two_copies = mt.ground.mask_of({"4", "4#1"})
    assert mt.rank(line) == 6
    assert mt.rank(line | one_copy) == 7
    assert mt.rank(line | two_copies) == 8


def test_flat_transfer_and_partial_augmentation():
    rng = random.Random(31)
    for name in ("fig1_N", "fig2_M"):
        m = get(name)
        n = m.ground.n
        for t in (2, 3):
            mt, emap = expand(m, t)
            for _ in range(40):
                x = rng.randrange(1 << n)
                sx = emap.s_mask(x)
                assert m.is_flat(x) == mt.is_flat(sx)
                assert m.is_cyclic(x) == mt.is_cyclic(sx)
            # S_F plus fewer than t outside elements stays a flat
            flats = [x for x in range(1 << n) if m.is_flat(x)]
            for _ in range(20):
                f = rng.choice(flats)
                sf = emap.s_mask(f)
                outside = [i for i in range(mt.ground.n)
                           if not (sf >> i & 1)]
                if len(outside) < t:
                    continue
                picks = rng.sample(outside, rng.randrange(t))
                a = 0
                for i in picks:
                    a |= 1 << i
                assert mt.is_flat(sf | a)


def test_cyclic_flats_of_expansion_are_block_saturated():
    m = get("fig2_N")
    mt, emap = expand(m, 2)
    expect = sorted((emap.s_mask(a), 2 * r)
                    for a, r in m.zee)
    assert sorted(mt.zee) == expect


def test_dual_commutes_with_expansion():
    for name in ("fig1_M", "fig1_N", "fig2_M", "fig3_N"):
        m = get(name)
        for t in (2, 3):
            a, _ = expand(m.dual(), t)
            b = expand(m, t)[0].dual()
            assert a.equals(b)


def test_minors_commute_with_expansion():
    rng = random.Random(41)
    for name in ("fig1_M", "fig1_N", "fig3_M"):
        m = get(name)
        g = m.ground
        n = g.n
        for t in (2, 3):
            mt, emap = expand(m, t)
            for _ in range(12):
                x = rng.randrange(1, 1 << n)
                labs = g.labels_of(x)
                sx = emap.s_mask(x)
                keep_small = m.delete(g.full ^ x)
                keep_big = mt.delete(mt.ground.full ^ sx)
                again, _ = expand(keep_small, t)
                assert again.equals(keep_big)
                con_small = m.contract(x)
                con_big = mt.contract(sx)
                again_c, _ = expand(con_small, t)
                assert again_c.equals(con_big)


def test_connectivity_transfer():
    g = GroundSet(["1", "2", "3", "4"])
    zee = [(0, 0), (g.mask_of({"1", "2"}), 1), (g.mask_of({"3", "4"}), 1),
           (g.full, 2)]
    disconnected = validate_axioms(zee, g)
    for t in (2, 3):
        assert not expand(disconnected, t)[0].is_connected()
    for name in ("fig1_M", "fig1_N"):
        m = get(name)
        for t in (2, 3):
            mt, emap = expand(m, t)
            assert mt.is_connected() == m.is_connected()
            got = {f for f in mt.connected_flats(proper=True)
                   if popcount(f) >= 2}
            expect = {emap.s_mask(f)
                      for f in m.connected_flats(proper=True)
                      if popcount(f) >= 2}
            assert got == expect


def test_clonal_classes_of_expansion_are_saturated_classes():
    for name in ("fig1_M", "fig1_N", "fig3_N"):
        m = get(name)
        mt, emap = expand(m, 2)
        got = sorted(tuple(sorted(mt.ground.labels_of(c)))
                     for c in mt.clonal_classes())
        expect = sorted(
            tuple(sorted(l for lab in m.ground.labels_of(c)
                         for l in emap.blocks[lab]))
            for c in m.clonal_classes())
        assert got == expect


def test_composition_of_expansions():
    for name in ("fig1_N", "fig3_M"):
        m = get(name)
        m4, _ = expand(m, 4)
        m22, _ = expand(expand(m, 2)[0], 2)
        assert m22.ground.n == m4.ground.n == 4 * m.ground.n
        # same matroid after matching clone blocks: deflating by 4 and
        # comparing clonal classes works without referring to labels
        d4 = deflate(m22, 4)
        dm = deflate(m4, 4)
        assert d4.ground.n == dm.ground.n == m.ground.n
        assert sorted(r for _, r in d4.zee) == sorted(r for _, r in m.zee)
        mapping = dict(zip(d4.ground.labels, m.ground.labels))
        assert d4.relabel(mapping).equals(m) or _iso_via_classes(d4, m)
        mapping2 = dict(zip(dm.ground.labels, m.ground.labels))
        assert dm.relabel(mapping2).equals(m) or _iso_via_classes(dm, m)


def _iso_via_classes(a, b):
    """Relabel a onto b by aligning sorted clonal classes."""
    ca = sorted((sorted(a.ground.labels_of(c)) for c in a.clonal_classes()),
                key=lambda ls: (len(ls), ls))
    cb = sorted((sorted(b.ground.labels_of(c)) for c in b.clonal_classes()),
                key=lambda ls: (len(ls), ls))
    if [len(x) for x in ca] != [len(x) for x in cb]:
        return False
    mapping = {}
    for xs, ys in zip(ca, cb):
        for x, y in zip(xs, ys):
            mapping[x] = y
    return a.relabel(mapping).equals(b)


def test_deflate_recovers_the_base():
    for name, t in (("fig1_M", 3), ("fig1_N", 2), ("fig2_M", 2),
                    ("fig3_N", 3)):
        m = get(name)
        mt, emap = expand(m, t)
        back, dmap = deflate_with_map(mt, t)
        assert back.ground.n == m.ground.n
        assert _iso_via_classes(back, m)
        # the recovered blocks partition the expanded ground set
        seen = set()
        for rep, block in dmap.blocks.items():
            assert len(block) == t
            assert block[0] == rep
            seen.update(block)
        assert seen == set(mt.ground.labels)


def test_deflate_uniform_examples():
    d = deflate(uniform(2, 6), 2)
    assert d.equals(uniform(1, 3, d.ground.labels))
    d2 = deflate(uniform(3, 6), 3)
    assert d2.equals(uniform(1, 2, d2.ground.labels))


def test_deflate_rejects_non_expansions():
    with pytest.raises(NotATExpansion):
        deflate(get("fig1_M"), 2)  # clonal classes of size 3
    with pytest.raises(NotATExpansion):
        deflate(uniform(3, 6), 2)  # rank 3 is not divisible by 2
    assert deflate(get("fig1_M"), 1).equals(get("fig1_M"))  # identity
    with pytest.raises(ValueError):
        deflate(get("fig1_M"), 0)  # t must be positive


def test_union_of_two_disjoint_rank_one_pieces():
    g = GroundSet([str(i) for i in range(1, 7)])
    a = validate_axioms([(g.mask_of({"4", "5", "6"}), 0), (g.full, 1)], g)
    b = validate_axioms([(g.mask_of({"1", "2", "3"}), 0), (g.full, 1)], g)
    u = matroid_union([a, b])
    expect = validate_axioms(
        [(0, 0), (g.mask_of({"1", "2", "3"}), 1),
         (g.mask_of({"4", "5", "6"}), 1), (g.full, 2)], g)
    assert u.equals(expect)


def _rank1(g, nonloops):
    if nonloops == 0:
        return validate_axioms([(g.full, 0)], g)
    if popcount(nonloops) == 1:
        return validate_axioms([(g.full ^ nonloops, 0)], g)
    return validate_axioms([(g.full ^ nonloops, 0), (g.full, 1)], g)


def test_union_rank_matches_minimum_formula_oracle():
    rng = random.Random(53)
    for _ in range(15):
        n = rng.randrange(3, 7)
        g = GroundSet([str(i) for i in range(n)])
        members = []
        for _ in range(rng.randrange(2, 4)):
            members.append(_rank1(g, rng.randrange(1, 1 << n)))
        u = matroid_union(members)
        for _ in range(30):
            x = rng.randrange(1 << n)
            assert u.rank(x) == union_rank_oracle(members, x)


def test_union_requires_a_common_ground_set():
    a = uniform(1, 2)
    b = uniform(1, 3)
    with pytest.raises(ValueError):
        matroid_union([a, b])


def test_expand_via_union_agrees_with_expand():
    m = get("fig1_M")
    g = m.ground
    members = []
    for nonloops in ({"1", "2", "3"}, {"4", "5", "6"},
                     {"1", "2", "3", "4", "5", "6"}):
        members.append(validate_axioms(
            [(g.full ^ g.mask_of(nonloops), 0), (g.full, 1)], g))
    via = expand_via_union(m, members, 2)
    direct, _ = expand(m, 2)
    assert via.equals(direct)


def test_expand_via_union_rejects_wrong_decomposition():
    m = get("fig1_M")
    g = m.ground
    members = []
    for nonloops in ({"1", "2", "3"}, {"4", "5", "6"}):
        members.append(validate_axioms(
            [(g.full ^ g.mask_of(nonloops), 0), (g.full, 1)], g))
    # two rank-one pieces only reach rank two, not the rank-three target
    with pytest.raises(DecompositionMismatch):
        expand_via_union(m, members, 2)


def test_presentation_matroid_examples():
    p = Presentation.from_labels([{"1", "2"}], ["1", "2"])
    m = presentation_matroid(p)
    assert m.equals(uniform(1, 2, ("1", "2")))
    q = Presentation.from_labels([{"1"}], ["1", "2"])
    mq = presentation_matroid(q)
    assert mq.rank(mq.ground.full) == 1
    assert mq.loops == mq.ground.mask_of({"2"})
    # no sets: every element is a loop
    empty = presentation_matroid(Presentation.from_labels([], ["1", "2"]))
    assert empty.equals(uniform(0, 2, ("1", "2")))


def test_presentations_of_catalog_entries_present_them():
    for name in ("fig1_M", "fig2_M"):
        p = presentation(name)
        m = presentation_matroid(p)
        assert m.equals(get(name))


def test_expand_presentation_presents_the_expansion():
    for name, ts in (("fig1_M", (2, 3)), ("fig2_M", (2,))):
        m = get(name)
        p = presentation(name)
        for t in ts:
            mt, emap = expand(m, t)
            pt = expand_presentation(p, emap)
            assert presentation_matroid(pt).equals(mt)
