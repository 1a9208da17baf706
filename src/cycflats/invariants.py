"""Enumerative invariants: Tutte polynomial and configurations.

The Tutte polynomial is computed by the corank-nullity sum over all
subsets, T(M;x,y) = sum_A (x-1)^(r(M)-r(A)) (y-1)^(|A|-r(A)), collected
into a (corank, nullity) histogram and then expanded into x,y
coefficients with exact big integers.  Corank and nullity depend only on
the count vector of A over the clonal classes, so the histogram reads
the state rank table of orbits.clonal_space (at most 2^24 states, the
one table budget) in the row passes of core.rank_slices, each state
sized and weighted by its prod C(s_c, x_c) sets from two row vectors
(OrbitSpace.rows, row_counts), in exact int64 (the counts reach 2^62).

The configuration of a coloop-free matroid is its unlabeled lattice of
cyclic flats decorated with each flat's size and rank; it determines the
Tutte polynomial, which the test suite exercises.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Dict, Optional, Tuple

import numpy as np

from .core import _CHUNK, Matroid, popcount
from .errors import HasColoops, MatroidError
from .orbits import clonal_space


class TuttePolynomial:
    """Sparse exact polynomial in x and y with nonnegative coefficients."""

    def __init__(self, coeffs: Dict[Tuple[int, int], int]):
        self.coeffs = {k: int(v) for k, v in coeffs.items() if v != 0}

    def coefficient(self, i: int, j: int) -> int:
        return self.coeffs.get((i, j), 0)

    def evaluate(self, x: int, y: int) -> int:
        return sum(c * x ** i * y ** j for (i, j), c in self.coeffs.items())

    def __eq__(self, other):
        return (isinstance(other, TuttePolynomial)
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def to_json_dict(self) -> dict:
        terms = [{"x": i, "y": j, "c": str(c)}
                 for (i, j), c in sorted(self.coeffs.items())]
        return {"terms": terms}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TuttePolynomial":
        coeffs = {}
        for term in obj["terms"]:
            coeffs[(int(term["x"]), int(term["y"]))] = int(term["c"])
        return cls(coeffs)

    def __repr__(self):
        parts = []
        for (i, j), c in sorted(self.coeffs.items(), reverse=True):
            mono = []
            if c != 1 or (i == 0 and j == 0):
                mono.append(str(c))
            if i:
                mono.append("x^%d" % i if i > 1 else "x")
            if j:
                mono.append("y^%d" % j if j > 1 else "y")
            parts.append(" ".join(mono))
        return " + ".join(parts) if parts else "0"


def tutte_polynomial(M: Matroid, threads: int = 1) -> TuttePolynomial:
    """Exact Tutte polynomial from the corank-nullity histogram of the
    count-vector states."""
    n = M.ground.n
    space = clonal_space(M)
    table = space.ranks()
    R = M.rank_total
    nullmax = n - R
    hist = np.zeros((R + 1) * (nullmax + 1), dtype=np.int64)
    # state j*B + i: size and number of sets from row 0's state i and
    # row start j, in the row passes of rank_slices
    low, high = space.rows()
    sizes_low, sizes_high = np.bitwise_count(low), np.bitwise_count(high)
    counts_low, counts_high = space.row_counts()
    rows = table.reshape(-1, low.size)
    step = max(1, _CHUNK // low.size)
    for start in range(0, len(rows), step):
        part = slice(start, start + step)
        key = np.subtract(R, rows[part], dtype=np.int16)
        key *= nullmax + 1
        key += np.add.outer(sizes_high[part], sizes_low)
        key -= rows[part]
        # np.add.at is several times faster on flat arrays
        np.add.at(hist, key.ravel(), np.multiply.outer(
            counts_high[part], counts_low).ravel())
    coeffs: Dict[Tuple[int, int], int] = {}
    for a in range(R + 1):
        for b in range(nullmax + 1):
            cnt = int(hist[a * (nullmax + 1) + b])
            if cnt == 0:
                continue
            # (x-1)^a (y-1)^b expanded with binomials
            for i in range(a + 1):
                ci = comb(a, i) * (-1) ** (a - i)
                for j in range(b + 1):
                    cj = comb(b, j) * (-1) ** (b - j)
                    coeffs[i, j] = coeffs.get((i, j), 0) + cnt * ci * cj
    T = TuttePolynomial(coeffs)
    if any(c < 0 for c in T.coeffs.values()) or T.evaluate(2, 2) != 1 << n:
        raise MatroidError("internal check failed: Tutte coefficients "
                           "inconsistent")
    return T


@dataclass(frozen=True)
class Configuration:
    """Unlabeled lattice of cyclic flats with (size, rank) decorations.

    deco[i] is the (size, rank) pair of node i; leq holds the strict order
    pairs (i, j) with node i properly below node j.
    """

    deco: Tuple[Tuple[int, int], ...]
    leq: frozenset

    def _node_signatures(self) -> list:
        """(decoration, down-degree, up-degree) of each node, from one
        pass over leq."""
        n = len(self.deco)
        below = [0] * n
        above = [0] * n
        for i, j in self.leq:
            above[i] += 1
            below[j] += 1
        return [(self.deco[i], below[i], above[i]) for i in range(n)]

    def signature(self):
        return sorted(self._node_signatures())

    def node_signature(self, i: int):
        return self._node_signatures()[i]

    def covers(self):
        out = []
        for i, j in sorted(self.leq):
            if not any((i, k) in self.leq and (k, j) in self.leq
                       for k in range(len(self.deco))):
                out.append((i, j))
        return out

    def to_json_dict(self) -> dict:
        return {
            "nodes": [{"id": i, "size": s, "rank": k}
                      for i, (s, k) in enumerate(self.deco)],
            "covers": [[i, j] for i, j in self.covers()],
        }


def configuration(M: Matroid) -> Configuration:
    """The configuration of a coloop-free matroid."""
    if M.coloops:
        raise HasColoops(
            "configuration is defined for coloop-free matroids; coloops: %s"
            % sorted(M.ground.labels_of(M.coloops)))
    deco = tuple((popcount(a), r) for a, r in M.zee)
    leq = set()
    masks = [a for a, _ in M.zee]
    for i, x in enumerate(masks):
        for j, y in enumerate(masks):
            if i != j and x & ~y == 0:
                leq.add((i, j))
    return Configuration(deco=deco, leq=frozenset(leq))


def config_isomorphic(C1: Configuration, C2: Configuration
                      ) -> Tuple[bool, Optional[dict]]:
    """Decorated-lattice isomorphism via backtracking.

    Returns (True, witness map node->node) or (False, None).  Candidates
    are pruned by (decoration, down-degree, up-degree) signatures.
    """
    n = len(C1.deco)
    if n != len(C2.deco):
        return False, None
    sig1, sig2 = C1._node_signatures(), C2._node_signatures()
    if sorted(sig1) != sorted(sig2):
        return False, None
    cands = [[j for j in range(n) if sig1[i] == sig2[j]] for i in range(n)]
    order = sorted(range(n), key=lambda i: len(cands[i]))
    assign: Dict[int, int] = {}
    used = [False] * n

    def backtrack(pos: int) -> bool:
        if pos == n:
            return True
        i = order[pos]
        for j in cands[i]:
            if used[j]:
                continue
            ok = True
            for i2, j2 in assign.items():
                below = (i, i2) in C1.leq
                above = (i2, i) in C1.leq
                if below != ((j, j2) in C2.leq) or \
                        above != ((j2, j) in C2.leq):
                    ok = False
                    break
            if ok:
                assign[i] = j
                used[j] = True
                if backtrack(pos + 1):
                    return True
                del assign[i]
                used[j] = False
        return False

    if backtrack(0):
        return True, dict(assign)
    return False, None
