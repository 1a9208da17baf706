"""Positroid orders and transversal presentations.

A linear order on a loopless matroid is a positroid order when, for every
proper connected flat F with at least two elements and every connected
component K of M/F with at least two elements, the elements of K lie
inside a single maximal cyclic interval of positions disjoint from F:
K is one block of the cyclic order restricted to F | K.  Orders are
checked as sequences of element indices, and the components of M/F come
from M's own rank, r(X | F) - r(F), without building the contraction.
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
    connected flats with >= 2 elements, which are the cyclic flats other
    than E with a connected restriction, in the order of M.zee.  The
    components of M/F are read off M's own rank, r(X | F) - r(F), so no
    contraction is built.  Computing these once lets a search check many
    orders cheaply.
    """
    if M.loops:
        raise HasLoops("positroid orders are defined for loopless matroids")
    out = []
    for f, _ in M.zee:
        if (popcount(f) < 2 or f == M.ground.full
                or len(M._components(f)) != 1):
            continue
        comps = [c for c in M._components(M.ground.full & ~f, f)
                 if popcount(c) >= 2]
        if comps:
            out.append((f, comps))
    return out


def _order_sequence(M: Matroid, order: Sequence[str]) -> List[int]:
    """The order as a sequence of element indices; validates the order."""
    order = [str(x) for x in order]
    if sorted(order) != sorted(M.ground.labels):
        raise ValueError("order is not a permutation of the ground set")
    return [M.ground.index[lab] for lab in order]


def _straddler(seq: Sequence[int], constraints
               ) -> Optional[Tuple[int, int]]:
    """The first (flat, component) whose component K is not one block of
    the cyclic order restricted to F | K, if any: along that restriction
    the K-flags change value more than twice around the circle."""
    for fmask, comps in constraints:
        for comp in comps:
            both = fmask | comp
            flags = [comp >> i & 1 for i in seq if both >> i & 1]
            if sum(a != b for a, b in zip(flags, flags[-1:] + flags)) > 2:
                return fmask, comp
    return None


def is_positroid_order(M: Matroid, order: Sequence[str]
                       ) -> Tuple[bool, Optional[dict]]:
    """Check the cyclic-interval property for one order.

    Returns (True, None) or (False, witness) where the witness names the
    flat and the quotient component that straddles two arcs.
    """
    constraints = _arc_constraints(M)
    bad = _straddler(_order_sequence(M, order), constraints)
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
        seq = (0,) + rest
        if _straddler(seq, constraints) is None:
            return [labels[i] for i in seq], checked
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
