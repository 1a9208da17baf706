from math import comb

import pytest

from cycflats import (
    BudgetExceeded,
    expand,
    flats_cover,
    kappa_scaling_check,
    popcount,
    tutte_connectivity,
    two_flats_cover_plus_one,
    uniform,
    vertical_connectivity,
)
from cycflats.catalog import entries, get, names
from cycflats.verify import run_theorem

from oracles import kappa_oracle, lambda_oracle, rank_table_oracle, tau_oracle


def test_pinned_connectivities():
    assert tutte_connectivity(get("fig1_M")).value == 2
    assert tutte_connectivity(get("fig1_N")).value == 3
    assert vertical_connectivity(get("fig1_M")).value == 2
    assert vertical_connectivity(get("fig1_N")).value == 3
    assert vertical_connectivity(get("fig3_M")).value == 3
    assert vertical_connectivity(get("fig3_N")).value == 3


def test_connectivities_match_bipartition_scan_oracle():
    for entry in entries().values():
        m = entry.matroid
        assert tutte_connectivity(m).value == tau_oracle(m)
        assert vertical_connectivity(m).value == kappa_oracle(m)
    for r, n in ((2, 6), (3, 8), (1, 4), (2, 7)):
        u = uniform(r, n)
        assert tutte_connectivity(u).value == tau_oracle(u)
        assert vertical_connectivity(u).value == kappa_oracle(u)


def test_uniform_infinite_band():
    # no k-separation exists exactly when n is within one of 2r
    for r, n in ((2, 3), (2, 4), (2, 5), (3, 5), (3, 6), (3, 7), (1, 2)):
        res = tutte_connectivity(uniform(r, n))
        assert res.is_infinite
        assert res.value is None
        assert res.to_json_dict()["value"] == "infinite"
    for r, n in ((2, 6), (3, 8), (1, 4)):
        assert not tutte_connectivity(uniform(r, n)).is_infinite


def test_tau_is_self_dual():
    for entry in entries().values():
        m = entry.matroid
        a = tutte_connectivity(m)
        b = tutte_connectivity(m.dual())
        assert a.value == b.value
    u = uniform(2, 4)
    assert tutte_connectivity(u).is_infinite
    assert tutte_connectivity(u.dual()).is_infinite


def test_degenerate_matroids():
    loops = uniform(0, 3)
    assert vertical_connectivity(loops).value == 0
    assert tutte_connectivity(loops).value == 1
    empty = uniform(0, 0)
    assert vertical_connectivity(empty).value == 0


def test_witnesses_certify_the_value():
    for name in ("fig1_M", "fig1_N", "fig2_M", "fig2_N", "fig3_M"):
        m = entry = get(name)
        lam = lambda_oracle(m)
        rank = rank_table_oracle(m)
        full = m.ground.full
        res = tutte_connectivity(m)
        if res.value is not None:
            w = m.ground.mask_of(res.witness)
            assert lam[w] + 1 == res.value
            assert min(popcount(w), popcount(full ^ w)) > lam[w]
        resv = vertical_connectivity(m)
        if resv.witness is not None:
            w = m.ground.mask_of(resv.witness)
            assert lam[w] + 1 == resv.value
            assert min(rank[w], rank[full ^ w]) > lam[w]


def test_single_deletions_lose_at_most_one_level():
    for entry in entries().values():
        m = entry.matroid
        base = vertical_connectivity(m).value
        for i in range(m.ground.n):
            after = vertical_connectivity(m.delete(1 << i)).value
            assert base - 1 <= after


def test_vertical_gap_between_the_paired_examples():
    m2, _ = expand(get("fig1_M"), 2)
    n2, _ = expand(get("fig1_N"), 2)
    km = vertical_connectivity(m2).value
    kn = vertical_connectivity(n2).value
    assert (km, kn) == (3, 5)
    assert kn - km == 2


def test_two_flats_cover_examples():
    ok, flats = two_flats_cover_plus_one(get("fig3_M"))
    assert ok
    m = get("fig3_M")
    union = 0
    for f in flats:
        fm = m.ground.mask_of(f)
        assert m.is_flat(fm)
        assert fm != m.ground.full
        union |= fm
    assert popcount(m.ground.full ^ union) <= 1
    assert two_flats_cover_plus_one(get("fig3_N")) == (False, None)


def test_flats_cover_grammar():
    assert flats_cover(get("fig3_M"), 2, 1) is not None
    three_lines = flats_cover(get("fig2_M"), 3, 0)
    assert three_lines is not None
    m = get("fig2_M")
    total = 0
    for f in three_lines:
        total |= m.ground.mask_of(f)
    assert total == m.ground.full
    assert flats_cover(get("fig2_N"), 3, 0) is None
    assert flats_cover(get("fig2_N"), 3, 1) is not None
    assert flats_cover(uniform(2, 9), 3, 2) is None


def test_flats_cover_refuses_past_its_budget(monkeypatch):
    # three of fig2_M's hyperplanes, repeats allowed: C(h + 2, 3) tries
    import cycflats.connectivity as conn
    m = get("fig2_M")
    tries = comb(len(m.hyperplanes()) + 2, 3)
    monkeypatch.setattr(conn, "COVER_BUDGET", tries)
    assert flats_cover(m, 3, 0) is not None
    monkeypatch.setattr(conn, "COVER_BUDGET", tries - 1)
    with pytest.raises(BudgetExceeded, match="too large"):
        flats_cover(m, 3, 0)


def test_cover_predicts_vertical_drop_under_expansion():
    # covered by two flats plus a point iff the doubled clone matroid has
    # vertical connectivity below its rank
    for name in ("fig3_M", "fig3_N"):
        m = get(name)
        covered, _ = two_flats_cover_plus_one(m)
        m2, _ = expand(m, 2)
        r2 = m2.rank(m2.ground.full)
        assert covered == (vertical_connectivity(m2).value < r2)


def test_scaling_check_shapes():
    rows = kappa_scaling_check(get("fig1_M"), 2)
    by_name = {row.name: row for row in rows}
    assert by_name["tau"].applicable
    assert by_name["tau"].base_value == 2
    assert by_name["tau"].expected == 3
    assert by_name["tau"].computed == 3
    assert by_name["kappa"].applicable
    assert by_name["kappa"].expected == 3
    assert by_name["kappa"].computed == 3

    rows_n = kappa_scaling_check(get("fig1_N"), 2)
    by_name_n = {row.name: row for row in rows_n}
    # vertical connectivity already equals the rank, so that half is
    # reported as out of hypothesis while the computed value still appears
    assert not by_name_n["kappa"].applicable
    assert by_name_n["kappa"].reason
    assert by_name_n["kappa"].computed == 5
    assert by_name_n["tau"].applicable
    assert by_name_n["tau"].expected == 5
    assert by_name_n["tau"].computed == 5


@pytest.mark.parametrize("name", names())
def test_run_theorem_reports_its_scaling_side(name):
    M = get(name)
    for t in (1, 2, 3):
        sides = {row.name: row for row in kappa_scaling_check(M, t)}
        for theorem, side in (("tau-scaling", "tau"),
                              ("kappa-scaling", "kappa")):
            (check,) = run_theorem(theorem, M, name, t).checks
            row = sides[side]
            assert (check.check_id, check.instance) == (
                theorem, "%s, t=%d" % (name, t))
            if row.applicable:
                assert (check.expected, check.computed, check.passed) == (
                    row.expected, row.computed, row.match)
            else:
                assert check.computed == "not applicable: %s (observed %r)" \
                    % (row.reason, row.computed)
                assert check.passed is False
