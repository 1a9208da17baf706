"""Tutte and vertical connectivity, witnesses, and flat covers.

Both connectivities are computed by one full scan of the connectivity
function lambda(X) = r(X) + r(E-X) - r(M), over the count vectors of the
clonal classes (orbits.OrbitSpace), which on a clone-free matroid are the
2^n subsets:

  * Tutte connectivity tau is the least k such that some X has
    |X| >= k, |E-X| >= k and lambda(X) < k; equivalently the minimum of
    lambda(X)+1 over X with lambda(X) < min(|X|, |E-X|).  When no such X
    exists tau is infinite, which happens exactly for the uniform
    matroids U_{r,n} with n in {2r-1, 2r, 2r+1}; the scan result is
    cross-checked against that characterization.

  * Vertical connectivity kappa replaces the size conditions by rank
    conditions r(X), r(E-X) >= k and falls back to r(M) when no vertical
    separation exists.

flats_cover searches for a family of proper flats covering all but a
permitted number of elements; since every proper flat extends to a
hyperplane and enlarging a flat only shrinks the uncovered remainder, the
search ranges over hyperplanes only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb
from typing import List, Optional, Tuple

import numpy as np

from .core import Matroid, is_uniform, popcount
from .errors import BudgetExceeded, MatroidError
from .expansion import expand
from .orbits import check_states, clonal_space

INFINITE = None      # tau's "no k-separation exists" value
COVER_BUDGET = 2_000_000    # hyperplane multisets that flats_cover tries


@dataclass(frozen=True)
class ConnectivityResult:
    """Connectivity value plus a witness separation when one exists.

    value None encodes an infinite Tutte connectivity; the witness is the
    smallest-mask X attaining the minimal separation, as labels.
    """

    value: Optional[int]
    witness: Optional[Tuple[str, ...]]

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def to_json_dict(self) -> dict:
        return {
            "value": "infinite" if self.value is None else self.value,
            "witness": list(self.witness) if self.witness else None,
        }


def _scan(M: Matroid, qualifier: str):
    """Minimal lambda(X)+1 over qualifying X, with smallest-mask witness.

    qualifier 'size' demands lambda(X) < min(|X|, |E-X|) (Tutte style),
    'rank' demands lambda(X) < min(r(X), r(E-X)) (vertical style).  Both
    depend only on the count vector of X, so the scan runs over the
    states of clonal_space(M); the smallest qualifying mask is the least
    canonical set of a qualifying state of least lambda.
    """
    n = M.ground.n
    if n == 0:
        return None, None
    space = clonal_space(M)
    check_states(space.count, "connectivity scan")
    lam = space.lams()
    if qualifier == "size":
        sizes = space.set_sizes()
        bound = np.minimum(sizes, n - sizes)
    else:
        ranks = space.ranks()
        bound = np.minimum(ranks, ranks[::-1], dtype=np.int16)
    qual = lam < bound
    if not qual.any():
        return None, None
    best = int(lam[qual].min())
    hit = qual & (lam == best)
    at = int(space.sets(np.flatnonzero(hit)).min())
    return best + 1, M.ground.labels_of(at)


def tutte_connectivity(M: Matroid, threads: int = 1) -> ConnectivityResult:
    """Tutte connectivity tau(M); INFINITE when no k-separation exists."""
    value, witness = _scan(M, "size")
    uni = is_uniform(M)
    char_infinite = uni is not None and uni[1] in (2 * uni[0] - 1,
                                                   2 * uni[0],
                                                   2 * uni[0] + 1)
    if (value is None) != char_infinite:
        raise MatroidError(
            "internal check failed: infinite-tau scan disagrees with the "
            "uniform characterization")
    return ConnectivityResult(value=value, witness=witness)


def vertical_connectivity(M: Matroid, threads: int = 1) -> ConnectivityResult:
    """Vertical connectivity kappa(M); r(M) when no vertical separation."""
    value, witness = _scan(M, "rank")
    if M.loops:
        stripped = M.delete(M.loops)
        v2, _ = _scan(stripped, "rank")
        k1 = value if value is not None else M.rank_total
        k2 = v2 if v2 is not None else stripped.rank_total
        if k1 != k2:
            raise MatroidError(
                "internal check failed: kappa changed after removing loops")
    if value is None:
        return ConnectivityResult(value=M.rank_total, witness=None)
    return ConnectivityResult(value=value, witness=witness)


def flats_cover(M: Matroid, count: int, slack: int
                ) -> Optional[List[Tuple[str, ...]]]:
    """Up to `count` proper flats leaving at most `slack` elements uncovered.

    Returns one witness list of flats (as label tuples) or None.  Only
    hyperplanes need to be searched: any proper flat lies inside one, and
    the larger flat never uncovers anything.
    """
    n = M.ground.n
    if count < 1:
        raise ValueError("count must be positive")
    if slack < 0:
        raise ValueError("slack must be nonnegative")
    if n == 0:
        return []
    hyps = M.hyperplanes()
    if not hyps:
        return None
    if comb(len(hyps) + count - 1, count) > COVER_BUDGET:
        raise BudgetExceeded(
            "flat-cover search over %d hyperplanes choose %d is too large"
            % (len(hyps), count))
    full = M.ground.full
    hyps.sort(key=popcount, reverse=True)
    for combo in combinations_with_replacement(hyps, count):
        u = 0
        for h in combo:
            u |= h
        if popcount(full & ~u) <= slack:
            chosen = sorted(set(combo), key=popcount)
            return [M.ground.labels_of(h) for h in chosen]
    return None


def two_flats_cover_plus_one(M: Matroid
                             ) -> Tuple[bool, Optional[List[Tuple[str, ...]]]]:
    """Do two proper flats cover all but at most one element?"""
    w = flats_cover(M, 2, 1)
    return w is not None, w


@dataclass(frozen=True)
class ScalingCheck:
    """One side of a connectivity scaling report."""

    name: str
    applicable: bool
    reason: Optional[str]
    base_value: Optional[int]
    expected: Optional[int]
    computed: Optional[int]

    @property
    def match(self) -> Optional[bool]:
        if not self.applicable:
            return None
        return self.expected == self.computed

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "applicable": self.applicable,
            "reason": self.reason,
            "base_value": self.base_value,
            "expected": self.expected,
            "computed": self.computed,
            "match": self.match,
        }


# Each side of the scaling theorem: its connectivity, its hypothesis on
# M and that connectivity's value, and why a side that fails it is skipped.
_SCALING = {
    "tau": (tutte_connectivity, lambda M, value: value is not None,
            "tau(M) is infinite; the scaling theorem needs a finite value"),
    "kappa": (vertical_connectivity, lambda M, value: value < M.rank_total,
              "kappa(M) = r(M); the scaling theorem needs kappa(M) < r(M)"),
}


def scaling_side(side: str, M: Matroid, Mt: Matroid, t: int
                 ) -> ScalingCheck:
    """The 'tau' or 'kappa' side of kappa_scaling_check, for Mt the
    t-expansion of M."""
    connectivity, hypothesis, skipped = _SCALING[side]
    base = connectivity(M).value
    ok = hypothesis(M, base)
    return ScalingCheck(
        name=side, applicable=ok, reason=None if ok else skipped,
        base_value=base, expected=t * (base - 1) + 1 if ok else None,
        computed=connectivity(Mt).value)


def kappa_scaling_check(M: Matroid, t: int, threads: int = 1
                        ) -> List[ScalingCheck]:
    """Check tau and kappa scaling under t-expansion.

    tau(M^t) = t(tau(M)-1)+1 whenever tau(M) is finite, and
    kappa(M^t) = t(kappa(M)-1)+1 whenever kappa(M) < r(M).  Sides whose
    hypothesis fails are reported as skipped, with the observed value of
    the expansion still recorded.
    """
    Mt, _ = expand(M, t)
    return [scaling_side(side, M, Mt, t) for side in _SCALING]
