"""t-expansion of a matroid, its inverse, and matroid union.

The t-expansion M^t replaces every element e by a t-element clone block
S_e (with e itself a member of its block).  Cyclic flats of M^t are the
blown-up sets S_A for A a cyclic flat of M, with rank t * r(A).  deflate
undoes the construction; matroid_union realizes

    r(X) = min { sum_i r_i(Y) + |X - Y| : Y subseteq X }

by a per-bit min-plus sweep over the full rank table, and expand_via_union
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
    validate_axioms,
    zee_from_rank_table,
    MAX_GROUND,
)
from .errors import (
    AxiomViolation,
    BudgetExceeded,
    DecompositionMismatch,
    MatroidError,
    NotATExpansion,
)

UNION_BUDGET = 20      # largest ground set for the 2^n union table


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

    def block_mask(self, e: str) -> int:
        return self.block_masks[self.base_ground.index[e]]

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
    """Union of matroids on a common ground set.

    The union's rank of X is min over Y subseteq X of sum_i r_i(Y) plus
    |X - Y|; the whole rank table is produced by one min-plus sweep per
    bit, and the cyclic flats are read back off the table.
    """
    members = list(members)
    if ground is None:
        if not members:
            raise ValueError("empty union needs an explicit ground set")
        ground = members[0].ground
    n = ground.n
    if n > UNION_BUDGET:
        raise BudgetExceeded(
            "union table needs 2^%d entries, budget is 2^%d"
            % (n, UNION_BUDGET))
    aligned = [_aligned(Mi, ground) for Mi in members]
    masks = np.arange(1 << n, dtype=np.uint64)
    f = np.zeros(1 << n, dtype=np.int64)
    for Mi in aligned:
        f += rank_of_mask_array(Mi, masks)
    g = f
    idx = np.arange(1 << n, dtype=np.int64)
    for b in range(n):
        bit = 1 << b
        has = np.nonzero(idx & bit)[0]
        g[has] = np.minimum(g[has], g[has ^ bit] + 1)
    zee = zee_from_rank_table(g, n)
    return validate_axioms(zee, ground)


def expand_via_union(M: Matroid, members: Sequence[Matroid],
                     t: int) -> Matroid:
    """Build M^t as a union of parallel-extended decomposition members.

    members must union to M (checked; DecompositionMismatch otherwise).
    Each member contributes t copies on the expanded ground set, where a
    copy's rank of Y is the member's rank of the set of base elements
    whose block meets Y: every new element sits parallel to its base
    element, and copies of loops stay loops.  The result is checked
    against expand(M, t).
    """
    U = matroid_union(members, ground=M.ground)
    if not U.equals(M):
        raise DecompositionMismatch(
            "the given members do not union to the matroid being expanded")
    Mt, emap = expand(M, t)
    nt = emap.exp_ground.n
    if nt > UNION_BUDGET:
        raise BudgetExceeded(
            "expanded union table needs 2^%d entries, budget is 2^%d"
            % (nt, UNION_BUDGET))
    exp_masks = np.arange(1 << nt, dtype=np.uint64)
    pi = np.zeros(1 << nt, dtype=np.uint64)
    for i, e in enumerate(M.ground.labels):
        smask = np.uint64(emap.block_mask(e))
        pi |= ((exp_masks & smask) != 0).astype(np.uint64) << np.uint64(i)
    exp_members = []
    for Mi in members:
        Mi = _aligned(Mi, M.ground)
        table = rank_of_mask_array(Mi, pi)
        zee_i = zee_from_rank_table(table, nt)
        Mexp = validate_axioms(zee_i, emap.exp_ground)
        exp_members.extend([Mexp] * t)
    R = matroid_union(exp_members, ground=emap.exp_ground)
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
