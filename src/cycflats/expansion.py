"""t-expansion of a matroid, its inverse, and matroid union.

The t-expansion M^t replaces every element e by a t-element clone block
S_e (with e itself a member of its block).  Cyclic flats of M^t are the
blown-up sets S_A for A a cyclic flat of M, with rank t * r(A).  deflate
undoes the construction; matroid_union realizes

    r(X) = min { sum_i r_i(Y) + |X - Y| : Y subseteq X }

on the unions of the common classes of its members (elements in the
same cyclic flats of every member).  Permuting elements within a class
changes no member's rank, so it fixes the largest minimising Y, which
is therefore a union of classes whenever X is: on class unions the
minimum runs over class unions alone.  By the same symmetry one element
of an absent class c raises r(X) exactly when all of c does, and one
element of a present class c is a coloop of X exactly when all of c is,
that is when r(X - c) = r(X) - |c|.  So 2^k ranks over k classes
decide every cyclic flat, and no 2^n table is built.  expand_via_union
rebuilds M^t as a union of parallel-extended copies of a decomposition
of M.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .core import (
    GroundSet,
    Matroid,
    popcount,
    rank_of_mask_array,
    refined,
    validate_axioms,
    MAX_GROUND,
)
from .errors import (
    AxiomViolation,
    BudgetExceeded,
    DecompositionMismatch,
    MatroidError,
    NotATExpansion,
)
from .orbits import check_states


@dataclass(frozen=True)
class ExpansionMap:
    """Bookkeeping for one t-expansion: blocks S_e and the label maps.

    blocks[e] lists the t expanded labels of base element e, with
    blocks[e][0] == e; block_masks[i] is the expanded mask of the block
    of the i-th base element.  exp_ground fixes the expanded label order
    (block-concatenated in base order for expand(); the original order for
    a map recovered by deflate).
    """

    t: int
    base_ground: GroundSet
    exp_ground: GroundSet
    blocks: Dict[str, Tuple[str, ...]]
    inverse: Dict[str, str] = field(default=None, repr=False)

    def __post_init__(self):
        inv = {}
        for e, blk in self.blocks.items():
            for lab in blk:
                inv[lab] = e
        object.__setattr__(self, "inverse", inv)
        index = self.exp_ground.index
        object.__setattr__(self, "block_masks", tuple(
            sum(1 << index[lab] for lab in self.blocks[e])
            for e in self.base_ground.labels))

    def s_mask(self, base_mask: int) -> int:
        """Expanded mask S_X for a base mask X."""
        out = 0
        while base_mask:
            low = base_mask & -base_mask
            out |= self.block_masks[low.bit_length() - 1]
            base_mask ^= low
        return out

    def theta_mask(self, exp_mask: int) -> int:
        """theta(X) = set of base elements whose whole block is inside X."""
        out = 0
        for i, blk in enumerate(self.block_masks):
            if blk & ~exp_mask == 0:
                out |= 1 << i
        return out

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "blocks": {e: list(self.blocks[e])
                       for e in self.base_ground.labels},
        }


def expand(M: Matroid, t: int) -> Tuple[Matroid, ExpansionMap]:
    """The t-expansion M^t, re-validated, plus its ExpansionMap.

    Copy labels are "e#1", "e#2", ...; an index whose label collides with
    an existing base label is skipped, so expanding an already-expanded
    matroid stays well-defined.  Distinct bases can never mint the same
    label: splitting a generated label at its last '#' recovers the base.
    """
    if t < 1:
        raise ValueError("t must be a positive integer")
    base = M.ground
    if t * base.n > MAX_GROUND:
        raise BudgetExceeded(
            "expansion would have %d elements, cap is %d"
            % (t * base.n, MAX_GROUND))
    taken = set(base.labels)
    blocks = {}
    exp_labels = []
    for lab in base.labels:
        blk = [lab]
        i = 1
        while len(blk) < t:
            cand = "%s#%d" % (lab, i)
            i += 1
            if cand in taken:
                continue
            blk.append(cand)
        blocks[lab] = tuple(blk)
        exp_labels.extend(blk)
    exp_ground = GroundSet(exp_labels)
    emap = ExpansionMap(t=t, base_ground=base, exp_ground=exp_ground,
                        blocks=blocks)
    zee_t = [(emap.s_mask(a), t * r) for a, r in M.zee]
    Mt = validate_axioms(zee_t, exp_ground)
    return Mt, emap


def deflate_with_map(N: Matroid, t: int) -> Tuple[Matroid, ExpansionMap]:
    """Undo a t-expansion; also return the block map into N's labels.

    Representatives are the lexicographically least |class|/t labels of
    each clonal class; the rest of the class is dealt round-robin so each
    block starts with its representative.  The result is verified by
    re-expanding and comparing through the explicit block bijection.
    """
    if t < 1:
        raise ValueError("t must be a positive integer")
    classes = N.clonal_classes()
    blocks = {}
    reps = set()
    for cmask in classes:
        labs = sorted(N.ground.labels_of(cmask))
        if len(labs) % t:
            raise NotATExpansion(
                "clonal class %s has size %d, not divisible by %d"
                % (labs, len(labs), t))
        m = len(labs) // t
        for j in range(m):
            blocks[labs[j]] = tuple(labs[j::m])
            reps.add(labs[j])
    base_labels = [lab for lab in N.ground.labels if lab in reps]
    base_ground = GroundSet(base_labels)
    emap = ExpansionMap(t=t, base_ground=base_ground, exp_ground=N.ground,
                        blocks=blocks)
    zee_base = []
    for s, rs in N.zee:
        if rs % t:
            raise NotATExpansion(
                "cyclic flat %s has rank %d, not divisible by %d"
                % (sorted(N.ground.labels_of(s)), rs, t))
        zee_base.append((emap.theta_mask(s), rs // t))
    try:
        M = validate_axioms(zee_base, base_ground)
    except AxiomViolation as exc:
        raise NotATExpansion("candidate cyclic flats fail the axioms: %s"
                             % exc)
    Mt, em2 = expand(M, t)
    mapping = {}
    for e in base_labels:
        for k in range(t):
            mapping[em2.blocks[e][k]] = blocks[e][k]
    if not Mt.relabel(mapping).equals(N):
        raise NotATExpansion("re-expansion does not reproduce the input")
    return M, emap


def deflate(N: Matroid, t: int) -> Matroid:
    """The matroid M with expand(M, t) isomorphic to N."""
    return deflate_with_map(N, t)[0]


def _aligned(M: Matroid, ground: GroundSet) -> Matroid:
    """M re-expressed on an equally-labeled ground set (possibly reordered)."""
    if M.ground == ground:
        return M
    if set(M.ground.labels) != set(ground.labels):
        raise ValueError("matroids are not on a common ground set")
    zee = [(ground.mask_of(M.ground.labels_of(a)), r) for a, r in M.zee]
    return Matroid(ground, zee)


def matroid_union(members: Sequence[Matroid],
                  ground: Optional[GroundSet] = None) -> Matroid:
    """Union of matroids on a common ground set, read off the 2^k unions
    of the k common classes (index bit c = class c): g = sum_i r_i takes
    g[X] = min(g[X], g[X - c] + |c|) for each class c in X, in turn."""
    members = list(members)
    if ground is None:
        if not members:
            raise ValueError("empty union needs an explicit ground set")
        ground = members[0].ground
    # no members: the union is the rank-0 matroid, all loops
    aligned = ([_aligned(Mi, ground) for Mi in members]
               or [Matroid(ground, [(ground.full, 0)])])
    parts = refined(ground, [a for Mi in aligned for a, _ in Mi.zee])
    check_states(1 << len(parts), "union")
    sets = np.zeros(1, dtype=np.uint64)
    for p in parts:
        sets = np.concatenate([sets, sets | np.uint64(p)])
    g = np.zeros(sets.size, dtype=np.int64)     # uint8 ranks, summed wide
    for Mi in aligned:
        g += rank_of_mask_array(Mi, sets)
    for c, p in enumerate(parts):
        v = g.reshape(-1, 2, 1 << c)            # v[:, 1]: the unions with c
        np.minimum(v[:, 1], v[:, 0] + popcount(p), out=v[:, 1])
    ok = np.ones(sets.size, dtype=bool)     # flat and cyclic, class by class
    for c, p in enumerate(parts):
        v, o = g.reshape(-1, 2, 1 << c), ok.reshape(-1, 2, 1 << c)
        o[:, 0] &= v[:, 1] > v[:, 0]
        o[:, 1] &= v[:, 1] - v[:, 0] < popcount(p)
    return validate_axioms([(int(a), int(r)) for a, r in zip(sets[ok], g[ok])],
                           ground)


def _parallel_extension(Mi: Matroid, emap: ExpansionMap) -> Matroid:
    """Mi on the expanded ground set with every new element parallel to
    its base element, so copies of loops stay loops.  For t >= 2 every
    element has a parallel partner or is a loop, so every flat is cyclic:
    the cyclic flats are S_F for every flat F of Mi, with rank r_i(F).
    The flats are listed by closure from cl(empty set)."""
    seen, stack = set(), [Mi.closure(0)]
    while stack:
        x = stack.pop()
        if x not in seen:
            seen.add(x)
            stack.extend(Mi.closure(x | 1 << i) for i in range(Mi.ground.n)
                         if not x >> i & 1)
    return Matroid(emap.exp_ground, [(emap.s_mask(x), Mi.rank(x))
                                     for x in seen])


def expand_via_union(M: Matroid, members: Sequence[Matroid],
                     t: int) -> Matroid:
    """Build M^t as a union of parallel-extended decomposition members.

    members must union to M (checked; DecompositionMismatch otherwise).
    Each member contributes t copies of its parallel extension (the
    member itself when t = 1).  The clonal classes of an extension are
    S_c for the classes c of elements with one closure, which fixes the
    union's 2^k class unions before any flat is listed.  The result is
    checked against expand(M, t).
    """
    U = matroid_union(members, ground=M.ground)
    if not U.equals(M):
        raise DecompositionMismatch(
            "the given members do not union to the matroid being expanded")
    Mt, emap = expand(M, t)
    members = [_aligned(Mi, M.ground) for Mi in members]
    if t == 1:
        exp_members = members
    else:
        parts = refined(M.ground, [Mi.closure(1 << i) for Mi in members
                                    for i in range(M.ground.n)])
        check_states(1 << len(parts), "union")
        exp_members = [_parallel_extension(Mi, emap) for Mi in members]
    R = matroid_union([Mexp for Mexp in exp_members for _ in range(t)],
                      ground=emap.exp_ground)
    if not R.equals(Mt):
        raise MatroidError(
            "internal check failed: union construction disagrees with "
            "direct expansion")
    return R


@dataclass(frozen=True)
class Presentation:
    """An ordered list of subsets A_1..A_k of a ground set.

    Presents the transversal matroid that is the union of the rank-1
    matroids whose non-loop sets are the A_i.  May be redundant.
    """

    ground: GroundSet
    sets: Tuple[int, ...]

    @classmethod
    def from_labels(cls, sets, ground) -> "Presentation":
        if not isinstance(ground, GroundSet):
            ground = GroundSet(ground)
        return cls(ground, tuple(ground.mask_of(s) for s in sets))

    def label_sets(self):
        return [sorted(self.ground.labels_of(a)) for a in self.sets]

    def to_json_dict(self) -> dict:
        return {"elements": list(self.ground.labels),
                "sets": self.label_sets()}


def expand_presentation(P: Presentation, emap: ExpansionMap) -> Presentation:
    """t copies of each blown-up set S_{A_i}, presenting the expansion."""
    sets = []
    for a in P.sets:
        sa = emap.s_mask(a)
        sets.extend([sa] * emap.t)
    return Presentation(emap.exp_ground, tuple(sets))
