"""Positroid orders and transversal presentations.

A linear order on a loopless matroid is a positroid order when, for every
proper connected flat F with at least two elements and every connected
component K of M/F with at least two elements, the elements of K lie
inside a single maximal cyclic interval of positions disjoint from F.
The matroid is a positroid when some order passes; the search exhausts
orders up to rotation and reflection, since the property only depends on
the cyclic order.

Transversal side: a presentation (A_1, ..., A_k) presents the union of
the rank-1 matroids whose non-loop sets are the A_i; verification is
literal matroid equality.
"""

from __future__ import annotations

from itertools import permutations
from typing import List, Optional, Sequence, Tuple

from .core import GroundSet, Matroid, popcount, validate_axioms
from .errors import (
    BudgetExceeded,
    HasLoops,
    InputOrderNotPositroid,
    MatroidError,
)
from .expansion import (
    ExpansionMap,
    Presentation,
    expand,
    matroid_union,
)

SEARCH_BUDGET = 9


def _arc_constraints(M: Matroid) -> List[Tuple[int, List[int]]]:
    """Order-independent data: (flat mask, [component masks of M/F]).

    Components are restricted to those with >= 2 elements; flats to proper
    connected flats with >= 2 elements.  Computing these once lets a
    search check many orders cheaply.
    """
    if M.loops:
        raise HasLoops("positroid orders are defined for loopless matroids")
    out = []
    for f in M.connected_flats(proper=True):
        if popcount(f) < 2:
            continue
        quotient = M.contract(f)
        comps = [M.ground.mask_of(quotient.ground.labels_of(c))
                 for c in quotient.components() if popcount(c) >= 2]
        if comps:
            out.append((f, comps))
    return out


def _order_positions(M: Matroid, order: Sequence[str]) -> List[int]:
    """Positions of each ground element in the order; validates the order."""
    order = [str(x) for x in order]
    if sorted(order) != sorted(M.ground.labels):
        raise ValueError("order is not a permutation of the ground set")
    pos = [0] * M.ground.n
    for p, lab in enumerate(order):
        pos[M.ground.index[lab]] = p
    return pos


def _fits_arcs(n: int, pos: List[int], fmask: int, comps: List[int]
               ) -> Optional[int]:
    """First component mask not inside one F-free cyclic arc, if any."""
    in_f = [False] * n
    bits = fmask
    while bits:
        b = bits & -bits
        bits ^= b
        in_f[pos[b.bit_length() - 1]] = True
    # arc id per position: positions sharing an id are in one maximal run
    arc = [-1] * n
    current = -1
    for p in range(n):
        if in_f[p]:
            current = -1
            continue
        if current == -1:
            current = p
        arc[p] = current
    # cyclic wrap: if neither endpoint position is in F, merge the runs
    if not in_f[0] and not in_f[n - 1]:
        head = arc[0]
        tail = arc[n - 1]
        for p in range(n):
            if arc[p] == head:
                arc[p] = tail
    for comp in comps:
        ids = set()
        bits = comp
        while bits:
            b = bits & -bits
            bits ^= b
            ids.add(arc[pos[b.bit_length() - 1]])
        if len(ids) > 1:
            return comp
    return None


def _straddler(n: int, pos: List[int], constraints
               ) -> Optional[Tuple[int, int]]:
    """The first (flat, component) whose component is not inside one
    F-free cyclic arc of the order, if any."""
    for fmask, comps in constraints:
        bad = _fits_arcs(n, pos, fmask, comps)
        if bad is not None:
            return fmask, bad
    return None


def is_positroid_order(M: Matroid, order: Sequence[str]
                       ) -> Tuple[bool, Optional[dict]]:
    """Check the cyclic-interval property for one order.

    Returns (True, None) or (False, witness) where the witness names the
    flat and the quotient component that straddles two arcs.
    """
    constraints = _arc_constraints(M)
    pos = _order_positions(M, order)
    bad = _straddler(M.ground.n, pos, constraints)
    if bad is None:
        return True, None
    return False, {"flat": sorted(M.ground.labels_of(bad[0])),
                   "component": sorted(M.ground.labels_of(bad[1]))}


def positroid_search(M: Matroid
                     ) -> Tuple[Optional[List[str]], int]:
    """Search all cyclic orders up to rotation and reflection.

    Returns (a verified order, classes checked) or (None, classes checked)
    after exhausting the (n-1)!/2 classes.
    """
    n = M.ground.n
    if n > SEARCH_BUDGET:
        raise BudgetExceeded(
            "order search visits (%d-1)!/2 classes, budget is n <= %d"
            % (n, SEARCH_BUDGET))
    constraints = _arc_constraints(M)
    labels = M.ground.labels
    if n <= 2 or not constraints:
        return list(labels), 1
    checked = 0
    for rest in permutations(range(1, n)):
        # fix element 0 first; discard one of each reflected pair
        if rest[0] > rest[-1]:
            continue
        checked += 1
        pos = [0] * n
        for p, i in enumerate(rest):
            pos[i] = p + 1
        if _straddler(n, pos, constraints) is None:
            order = [None] * n
            for i in range(n):
                order[pos[i]] = labels[i]
            return order, checked
    return None, checked


def expansion_positroid_order(M: Matroid, order: Sequence[str], t: int
                              ) -> Tuple[List[str], Matroid, ExpansionMap]:
    """Block-concatenated positroid order for the t-expansion.

    The base order must itself verify (InputOrderNotPositroid otherwise);
    each element is then replaced by its block, in block order, and the
    result is re-verified on the expansion.
    """
    ok, witness = is_positroid_order(M, order)
    if not ok:
        raise InputOrderNotPositroid(
            "base order fails the cyclic-interval check: %r" % (witness,))
    Mt, emap = expand(M, t)
    out: List[str] = []
    for lab in order:
        out.extend(emap.blocks[str(lab)])
    ok, witness = is_positroid_order(Mt, out)
    if not ok:
        raise MatroidError(
            "internal check failed: block-concatenated order did not "
            "verify on the expansion: %r" % (witness,))
    return out, Mt, emap


def rank_one(ground: GroundSet, nonloops: int) -> Matroid:
    """The rank-1 matroid on ground with the elements of nonloops mutually
    parallel and everything else a loop (all loops when it is empty)."""
    full = ground.full
    if nonloops == 0:
        return validate_axioms([(full, 0)], ground)
    zee = [(full & ~nonloops, 0)]
    if popcount(nonloops) >= 2:
        zee.append((full, 1))
    return validate_axioms(zee, ground)


def presentation_matroid(P: Presentation) -> Matroid:
    """The transversal matroid presented by P: the union of the rank-1
    matroids whose non-loop sets are the A_i."""
    return matroid_union([rank_one(P.ground, a) for a in P.sets],
                         ground=P.ground)


def verify_presentation(M: Matroid, P: Presentation) -> bool:
    """Does P present exactly M?"""
    return presentation_matroid(P).equals(M)
