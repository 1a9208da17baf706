import math
import random
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

import cycflats.invariants
from cycflats import (
    Configuration,
    HasColoops,
    MatroidError,
    Tangle,
    TuttePolynomial,
    branch_width_certified,
    config_isomorphic,
    configuration,
    expand,
    from_json_dict,
    kappa_scaling_check,
    popcount,
    rank_bounded_family,
    random_matroid,
    run_suite,
    run_theorem,
    tutte_connectivity,
    tutte_polynomial,
    uniform,
    validate_axioms,
    verify_tangle,
    vertical_connectivity,
)
from cycflats.catalog import entries, get, three_lines_tree
from cycflats.orbits import OrbitSpace

from oracles import (basis_count_oracle, config_isomorphic_oracle,
                     cycle_pair, graph_family, rank_table_oracle,
                     tutte_eval_oracle)


def _terms(t: TuttePolynomial):
    return {(d["x"], d["y"]): int(d["c"]) for d in t.to_json_dict()["terms"]}


def test_hand_computed_tiny_tuttes():
    assert _terms(tutte_polynomial(uniform(1, 2))) == {(1, 0): 1, (0, 1): 1}
    assert _terms(tutte_polynomial(uniform(2, 3))) == {(2, 0): 1, (1, 0): 1,
                                                       (0, 1): 1}
    assert _terms(tutte_polynomial(uniform(2, 4))) == {(2, 0): 1, (1, 0): 2,
                                                       (0, 1): 2, (0, 2): 1}


def test_empty_and_free_matroids():
    assert _terms(tutte_polynomial(uniform(0, 0))) == {(0, 0): 1}
    assert _terms(tutte_polynomial(uniform(3, 3))) == {(3, 0): 1}
    assert _terms(tutte_polynomial(uniform(0, 2))) == {(0, 2): 1}


def test_basis_count_and_subset_count_on_catalog():
    for entry in entries().values():
        m = entry.matroid
        t = tutte_polynomial(m)
        assert t.evaluate(1, 1) == basis_count_oracle(m)
        assert t.evaluate(2, 2) == 1 << m.ground.n


def test_polynomial_matches_subset_sum_oracle_on_grid():
    for name in ("fig1_M", "fig1_N", "fig2_M", "fig2_N", "fig3_N"):
        m = get(name)
        t = tutte_polynomial(m)
        r = m.rank(m.ground.full)
        n = m.ground.n
        for x in range(-1, r + 2):
            for y in range(-1, n - r + 2):
                assert t.evaluate(x, y) == tutte_eval_oracle(m, x, y)


def test_dual_swaps_variables():
    for entry in entries().values():
        m = entry.matroid
        t = tutte_polynomial(m)
        td = tutte_polynomial(m.dual())
        assert _terms(td) == {(j, i): c for (i, j), c in _terms(t).items()}


def test_deletion_contraction_recurrence():
    rng = random.Random(19)
    for name in ("fig1_N", "fig2_M", "fig3_N"):
        m = get(name)
        g = m.ground
        # pick an element that is neither a loop nor a coloop
        candidates = [i for i in range(g.n)
                      if not (m.loops >> i & 1) and not (m.coloops >> i & 1)]
        e = 1 << rng.choice(candidates)
        t = tutte_polynomial(m)
        t_del = tutte_polynomial(m.delete(e))
        t_con = tutte_polynomial(m.contract(e))
        for x in range(-2, 4):
            for y in range(-2, 4):
                assert t.evaluate(x, y) == (t_del.evaluate(x, y)
                                            + t_con.evaluate(x, y))


def test_big_uniform_basis_count_uses_exact_integers():
    t = tutte_polynomial(uniform(9, 18))
    assert t.evaluate(1, 1) == math.comb(18, 9)
    assert t.evaluate(2, 2) == 1 << 18


def test_uniform_on_62_elements_has_the_closed_form():
    # the terms cnt * C(a, i) * C(b, j) of the expansion reach 2^92
    # (r = 62), so the uint64 products wrap many times over
    n = 62
    for r in range(n + 1):
        if r == 0 or r == n:
            want = {(0, n) if r == 0 else (n, 0): 1}
        else:
            want = {(i, 0): math.comb(n - i - 1, r - i)
                    for i in range(1, r + 1)}
            want.update({(0, j): math.comb(n - j - 1, r - 1)
                         for j in range(1, n - r + 1)})
        assert _terms(tutte_polynomial(uniform(r, n))) == want, r


def test_shift_rows_are_the_powers_of_x_minus_one():
    shift = cycflats.invariants.SHIFT
    assert shift.shape == (63, 63)
    poly = [1]
    for a in range(63):
        assert shift[a].view(np.int64).tolist() == poly + [0] * (62 - a)
        # times (x - 1), in Python integers
        poly = [(poly[i - 1] if i else 0) - (poly[i] if i < a + 1 else 0)
                for i in range(a + 2)]


def histogram_tutte(M):
    """T(M) from a (corank, nullity) histogram of the oracle's 2^n
    ranks, expanded term by term with Python integers."""
    rank = rank_table_oracle(M)
    n = M.ground.n
    total = rank[-1]
    hist = Counter((total - rank[a], popcount(a) - rank[a])
                   for a in range(1 << n))
    out = Counter()
    for (a, b), cnt in hist.items():
        for i in range(a + 1):
            for j in range(b + 1):
                out[i, j] += (cnt * math.comb(a, i) * math.comb(b, j)
                              * (-1) ** (a - i + b - j))
    return {k: v for k, v in out.items() if v}


def test_coefficients_match_an_expanded_oracle_histogram():
    rng = random.Random(2025)
    seen = Counter()
    for _ in range(60):
        M = random_matroid(rng, 10)
        if M.ground.n <= 5 and rng.random() < 0.5:
            M = expand(M, 2)[0]
        seen["loops"] += bool(M.loops)
        seen["coloops"] += bool(M.coloops)
        assert _terms(tutte_polynomial(M)) == histogram_tutte(M)
    assert seen["loops"] >= 5 and seen["coloops"] >= 5


def test_the_internal_check_catches_a_dropped_subset(monkeypatch):
    profile = OrbitSpace.profile

    def dropped(space):
        H = profile(space)
        H[0, 0] -= 1             # lose the empty set
        return H

    M = get("fig1_N")
    monkeypatch.setattr(OrbitSpace, "profile", dropped)
    with pytest.raises(MatroidError, match="internal check"):
        tutte_polynomial(M)


def test_tutte_json_round_trip():
    t = tutte_polynomial(get("fig2_N"))
    again = TuttePolynomial.from_json_dict(t.to_json_dict())
    assert _terms(again) == _terms(t)
    assert again.evaluate(3, -2) == t.evaluate(3, -2)


def test_coefficient_accessor():
    t = tutte_polynomial(uniform(2, 4))
    assert t.coefficient(1, 0) == 2
    assert t.coefficient(0, 2) == 1
    assert t.coefficient(5, 5) == 0


def test_configuration_hand_values():
    c = configuration(get("fig1_M"))
    d = c.to_json_dict()
    sizes = sorted((node["size"], node["rank"]) for node in d["nodes"])
    assert sizes == [(0, 0), (3, 2), (3, 2), (6, 3)]
    assert len(d["covers"]) == 4  # bottom under both lines, both lines under top

    c2 = configuration(get("fig2_N"))
    d2 = c2.to_json_dict()
    sizes2 = sorted((node["size"], node["rank"]) for node in d2["nodes"])
    assert sizes2 == [(0, 0), (3, 2), (3, 2), (3, 2), (9, 3)]


def test_configuration_rejects_coloops():
    with pytest.raises(HasColoops):
        configuration(uniform(3, 3))
    with pytest.raises(HasColoops):
        configuration(uniform(2, 2))
    # loops are fine
    configuration(uniform(0, 2))


def test_config_isomorphic_pairs_and_witness():
    pairs = [("fig1_M", "fig1_N"), ("fig2_M", "fig2_N")]
    for a, b in pairs:
        ca = configuration(get(a))
        cb = configuration(get(b))
        ok, mapping = config_isomorphic(ca, cb)
        assert ok
        da = ca.to_json_dict()
        db = cb.to_json_dict()
        nodes_a = {node["id"]: (node["size"], node["rank"])
                   for node in da["nodes"]}
        nodes_b = {node["id"]: (node["size"], node["rank"])
                   for node in db["nodes"]}
        # witness is a size-and-rank preserving bijection carrying covers
        image = [mapping[str(i)] if str(i) in mapping else mapping[i]
                 for i in nodes_a]
        assert sorted(image) == sorted(nodes_b)
        for i, j in da["covers"]:
            mi = mapping[str(i)] if str(i) in mapping else mapping[i]
            mj = mapping[str(j)] if str(j) in mapping else mapping[j]
            assert [mi, mj] in db["covers"]


def test_config_isomorphic_distinguishes():
    c1 = configuration(get("fig1_M"))
    c2 = configuration(get("fig2_M"))
    ok, witness = config_isomorphic(c1, c2)
    assert not ok
    c3 = configuration(get("fig3_N"))
    ok2, _ = config_isomorphic(configuration(get("fig1_N")), c3)
    assert not ok2


def test_config_isomorphic_is_an_equivalence_spotcheck():
    cm = configuration(get("fig1_M"))
    cn = configuration(get("fig1_N"))
    assert config_isomorphic(cm, cm)[0]
    assert config_isomorphic(cm, cn)[0] == config_isomorphic(cn, cm)[0]
    # transitivity through the pair and back
    assert config_isomorphic(cn, cn)[0]


def shuffled(C, rng):
    """C with its nodes renumbered at random."""
    perm = list(range(len(C.deco)))
    rng.shuffle(perm)
    deco = [None] * len(perm)
    for i, d in enumerate(C.deco):
        deco[perm[i]] = d
    return Configuration(tuple(deco),
                         frozenset((perm[i], perm[j]) for i, j in C.leq))


def node_keys(C):
    """The multiset of (decoration, nodes below, nodes above)."""
    return sorted((d, sum(j == i for _, j in C.leq),
                   sum(a == i for a, _ in C.leq))
                  for i, d in enumerate(C.deco))


def is_isomorphism(C1, C2, image):
    n = len(C1.deco)
    return (sorted(image) == sorted(image.values()) == list(range(n))
            and all(C1.deco[i] == C2.deco[image[i]] for i in range(n))
            and {(image[i], image[j]) for i, j in C1.leq} == C2.leq)


def switched(edges, rng, times):
    """edges after `times` degree-preserving switches ab, cd -> ac, bd,
    or fewer when 20 * times random tries do not find them."""
    edges = list(edges)
    have = {frozenset(e) for e in edges}
    tries = 20 * times if len(edges) > 1 else 0
    while times and tries:
        tries -= 1
        s, t = rng.sample(range(len(edges)), 2)
        (a, b), (c, d) = edges[s], edges[t]
        if rng.random() < 0.5:
            c, d = d, c
        if (len({a, b, c, d}) < 4 or frozenset((a, c)) in have
                or frozenset((b, d)) in have):
            continue
        have -= {frozenset((a, b)), frozenset((c, d))}
        have |= {frozenset((a, c)), frozenset((b, d))}
        edges[s], edges[t] = (a, c), (b, d)
        times -= 1
    return edges


def config_of(obj):
    return configuration(from_json_dict(obj))


def profile(k, edges):
    """The sorted (degree, neighbour degrees, triangles) of the vertices:
    graphs that differ in it are not isomorphic."""
    nbrs = [set() for _ in range(k)]
    for a, b in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    return sorted((len(nb), sorted(len(nbrs[u]) for u in nb),
                   sum(len(nbrs[u] & nb) for u in nb)) for nb in nbrs)


def graph_pairs(rng, count, differ):
    """count (G, H) edge lists on 4-6 vertices, H by 1-4 degree-preserving
    switches of G; with differ, only pairs whose profiles differ."""
    while count:
        k = rng.randint(4, 6)
        edges = [e for e in combinations(range(k), 2) if rng.random() < 0.5]
        other = switched(edges, rng, rng.randint(1, 4))
        if not differ or profile(k, edges) != profile(k, other):
            count -= 1
            yield k, edges, other


def seeded_pairs(rng):
    """340 pairs of configurations, the second node-shuffled: 240 graph
    families against a switch of their graph, 120 of them known not to be
    isomorphic; 40 graph families and 40 coloop-free random_matroid
    configurations against themselves, and 20 random_matroid
    configurations against another draw."""
    for differ in (False, True):
        for k, edges, other in graph_pairs(rng, 120, differ):
            yield (config_of(graph_family(k, edges)),
                   shuffled(config_of(graph_family(k, other)), rng))
    for k, edges, _ in graph_pairs(rng, 40, False):
        C = config_of(graph_family(k, edges))
        yield C, shuffled(C, rng)
    draws = []
    while len(draws) < 80:
        M = random_matroid(rng, 7)
        if not M.coloops:
            draws.append(configuration(M))
    for C in draws[:40]:
        yield C, shuffled(C, rng)
    for C, D in zip(draws[40:60], draws[60:]):
        yield C, shuffled(D, rng)


def test_config_isomorphic_matches_the_oracle():
    seen = Counter()
    for C1, C2 in seeded_pairs(random.Random(21)):
        ok, image = config_isomorphic(C1, C2)
        assert ok == config_isomorphic_oracle(C1, C2)
        if ok:
            assert is_isomorphism(C1, C2, image)
            seen["isomorphic"] += 1
        elif node_keys(C1) == node_keys(C2):
            seen["not isomorphic, same node keys"] += 1
        else:
            seen["not isomorphic"] += 1
    # negatives that no count of nodes below and above tells apart must
    # make up a third of the pairs
    assert sum(seen.values()) >= 300, seen
    assert 3 * seen["not isomorphic, same node keys"] >= sum(seen.values())
    assert seen["isomorphic"] >= 100 and seen["not isomorphic"] > 0, seen


def test_cycle_pairs_are_decided_in_a_small_search(monkeypatch):
    # one cycle of planes against two: every line, and every plane, has
    # the same key in both, so a search that orders nodes by key alone
    # tries every permutation of the lines
    monkeypatch.setattr(cycflats.invariants, "ISO_BUDGET", 1 << 15)
    rng = random.Random(12)
    for k2 in (10, 12, 16, 20):
        C1, C2 = (config_of(obj) for obj in cycle_pair(k2))
        assert node_keys(C1) == node_keys(C2)
        assert config_isomorphic(C1, C2) == (False, None)
        for C in (C1, C2):
            D = shuffled(C, rng)
            ok, image = config_isomorphic(C, D)
            assert ok and is_isomorphism(C, D, image)


def test_same_configuration_forces_same_tutte():
    # coloop-free pairs with isomorphic configurations share the polynomial
    for a, b in (("fig1_M", "fig1_N"), ("fig2_M", "fig2_N")):
        ma, mb = get(a), get(b)
        assert config_isomorphic(configuration(ma), configuration(mb))[0]
        assert _terms(tutte_polynomial(ma)) == _terms(tutte_polynomial(mb))
    # and the property transfers to clone expansions
    ma2, _ = expand(get("fig1_M"), 2)
    mb2, _ = expand(get("fig1_N"), 2)
    assert config_isomorphic(configuration(ma2), configuration(mb2))[0]
    assert _terms(tutte_polynomial(ma2)) == _terms(tutte_polynomial(mb2))


def _tangle(M, c, k):
    return Tangle(order=k, members=rank_bounded_family(M, c))


def _checks(report):
    return [(c.check_id, c.instance, c.expected, c.computed, c.passed)
            for c in report.checks]


# Every public function that still accepts the ignored threads keyword.
_THREADED_CALLS = {
    "rank_table": lambda th: get("fig2_M").rank_table(threads=th).tolist(),
    "lam_table": lambda th: get("fig2_M").lam_table(threads=th).tolist(),
    "tutte_polynomial": lambda th: _terms(tutte_polynomial(get("fig2_M"),
                                                           threads=th)),
    "tutte_connectivity": lambda th: tutte_connectivity(
        get("fig1_N"), threads=th).to_json_dict(),
    "vertical_connectivity": lambda th: vertical_connectivity(
        get("fig3_M"), threads=th).to_json_dict(),
    "kappa_scaling_check": lambda th: [c.to_json_dict() for c in
                                       kappa_scaling_check(get("fig1_N"), 2,
                                                           threads=th)],
    "verify_tangle": lambda th: verify_tangle(
        get("fig2_M"), _tangle(get("fig2_M"), 2, 3), threads=th),
    "branch_width_certified": lambda th: branch_width_certified(
        get("fig2_M"), three_lines_tree(), _tangle(get("fig2_M"), 2, 3),
        threads=th).to_json_dict(),
    "run_suite": lambda th: _checks(run_suite("figures", threads=th)),
    "run_theorem": lambda th: _checks(run_theorem(
        "tau-scaling", get("fig1_N"), "fig1_N", 2, threads=th)),
}


@pytest.mark.parametrize("name", sorted(_THREADED_CALLS))
def test_threads_keyword_is_ignored(name):
    call = _THREADED_CALLS[name]
    assert call(4) == call(1)
