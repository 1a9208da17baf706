"""Enumerative invariants: Tutte polynomial and configurations.

The Tutte polynomial is the corank-nullity sum over all subsets,
T(M;x,y) = sum_A (x-1)^(r(M)-r(A)) (y-1)^(|A|-r(A)), a change of
variables of the rank-size profile H[r, k] of OrbitSpace.profile() on
orbits.clonal_space (at most 2^24 states, the one table budget): H[r, k]
moves to (corank, nullity) = (r(M) - r, k - r), and two matrix products,
C = P^T H P with P[a, i] = C(a, i)(-1)^(a-i) the coefficients of
(x-1)^a (SHIFT), expand it into x,y coefficients.  The products run in
uint64, whose wraparound is well defined, so C is exact mod 2^64 however
far the intermediate sums go past it.  The residue is c_ij itself: every
c_ij is >= 0 and sum c_ij 2^(i+j) = T(2, 2) = 2^n, so c_ij lies in
[0, 2^n], n <= 62.  That sum is the internal check: a profile short of
2^n sets, or a negative c_ij wrapped to a residue near 2^64, breaks it.

The configuration of a coloop-free matroid is its unlabeled lattice of
cyclic flats decorated with each flat's size and rank; it determines the
Tutte polynomial, which the test suite exercises.  config_isomorphic
backtracks over a relation table per configuration (1, -1 or 0 as node i
is below, above or incomparable to j), mapping each node to one of the
same decoration and numbers of nodes below and above that keeps every
relation to the mapped nodes.  Next to map is the node with the most
relations to mapped ones, ties to the lowest index (a node comparable to
all others adds to every count alike).  Past ISO_BUDGET candidates tried
it raises BudgetExceeded: search stays exponential in the worst case
(McKay and Piperno, J. Symbolic Comput. 60, 2014).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .core import MAX_GROUND, Matroid, popcount
from .errors import BudgetExceeded, HasColoops, MatroidError
from .orbits import clonal_space

ISO_BUDGET = 1 << 20      # search nodes of config_isomorphic

# SHIFT[a, i] = C(a, i)(-1)^(a-i) mod 2^64: row a is row a-1 shifted
# right, minus row a-1, as (x-1)^a = x(x-1)^(a-1) - (x-1)^(a-1)
SHIFT = np.zeros((MAX_GROUND + 1, MAX_GROUND + 1), dtype=np.uint64)
SHIFT[0, 0] = 1
for _a in range(1, MAX_GROUND + 1):
    SHIFT[_a, 1:] = SHIFT[_a - 1, :-1]
    SHIFT[_a] -= SHIFT[_a - 1]


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
    """Exact Tutte polynomial from the rank-size profile of the
    count-vector states."""
    n = M.ground.n
    R = M.rank_total
    hist = clonal_space(M).profile()
    # H[r, k] to (corank, nullity) = (R - r, k - r): k - r <= n - R
    r = np.arange(R, -1, -1)[:, None]
    grid = hist[r, r + np.arange(n - R + 1)].view(np.uint64)
    # exact mod 2^64, hence exact: see the module docstring
    grid = SHIFT[:R + 1, :R + 1].T @ grid @ SHIFT[:n - R + 1, :n - R + 1]
    i, j = np.nonzero(grid)
    coeffs = dict(zip(zip(i.tolist(), j.tolist()), grid[i, j].tolist()))
    if sum(c << (a + b) for (a, b), c in coeffs.items()) != 1 << n:
        raise MatroidError("internal check failed: Tutte coefficients "
                           "do not sum to T(2, 2) = 2^n")
    return TuttePolynomial(coeffs)


@dataclass(frozen=True)
class Configuration:
    """Unlabeled lattice of cyclic flats with (size, rank) decorations.

    deco[i] is the (size, rank) pair of node i; leq holds the strict order
    pairs (i, j) with node i properly below node j.
    """

    deco: Tuple[Tuple[int, int], ...]
    leq: frozenset

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
    """Decorated-lattice isomorphism by the relation-ordered search of
    the module docstring: (True, witness map node->node), the witness
    checked, or (False, None)."""
    n = len(C1.deco)
    if n != len(C2.deco):
        return False, None
    (rel1, key1), (rel2, key2) = _relations(C1), _relations(C2)
    if sorted(key1) != sorted(key2):
        return False, None
    slots: Dict[tuple, list] = {}
    for j, key in enumerate(key2):
        slots.setdefault(key, []).append(j)
    cands = [slots[key] for key in key1]
    links = [[k for k, r in enumerate(row) if r] for row in rel1]
    weight, image, used = [0] * n, [-1] * n, [False] * n
    # mapped nodes, the candidates left to each and to the current node
    placed, tries, pending, tried = [], [], None, 0
    while len(placed) < n:
        if pending is None:
            i = max((k for k in range(n) if image[k] < 0),
                    key=lambda k: (weight[k], -k))
            pending = iter(cands[i])
        row = rel1[i]
        for j in pending:
            tried += 1
            if tried > ISO_BUDGET:
                raise BudgetExceeded("configuration isomorphism searched "
                                     "more than %d nodes" % ISO_BUDGET)
            if not used[j] and all(row[a] == rel2[j][image[a]]
                                   for a in placed):
                break
        else:
            if not placed:
                return False, None
            i, pending = placed.pop(), tries.pop()
            used[image[i]], image[i] = False, -1
            for k in links[i]:
                weight[k] -= 1
            continue
        image[i], used[j] = j, True
        placed.append(i)
        tries.append(pending)
        for k in links[i]:
            weight[k] += 1
        pending = None
    if (sorted(image) != list(range(n))
            or any(C1.deco[i] != C2.deco[image[i]] for i in range(n))
            or {(image[i], image[j]) for i, j in C1.leq} != C2.leq):
        raise MatroidError("internal check failed: configuration witness "
                           "is no isomorphism")
    return True, dict(enumerate(image))


def _relations(C: Configuration) -> tuple:
    """rel[i][j] = 1 when node i is below j, -1 when above, else 0, and
    the key of each node: (decoration, nodes below, nodes above)."""
    n = len(C.deco)
    rel = [[0] * n for _ in range(n)]
    for i, j in C.leq:
        rel[i][j], rel[j][i] = 1, -1
    return rel, [(d, row.count(-1), row.count(1))
                 for d, row in zip(C.deco, rel)]
