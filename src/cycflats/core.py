"""Matroids represented by their lattice of cyclic flats.

A matroid is stored as a ground set plus the family of cyclic flats with
their ranks.  This family, ordered by inclusion, is a lattice, and the rank
of an arbitrary subset X is recovered as

    r(X) = min { r(A) + |X - A| : A a cyclic flat }.

Subsets of the ground set are bitmasks over a fixed label order, so the
ground set is capped at 62 elements and the rank formula is a short loop
(or a vectorized numpy scan over many masks, rank_of_mask_array).
rank_slices builds every whole rank table, over the 2^n masks or over
count-vector states, as uint8: at most 2^TABLE_BUDGET entries, 16 MB.
With T the greatest member and B0 the least, another member A is below
r(T) + |X - T| exactly when |(X & T) - A| < r(T) - r(A), and below
|X - B0| exactly when |(X & A) - B0| > r(A) - r(B0), so A can lower the
minimum of those two terms only where both hold.  Without loops or
coloops (T = E, B0 = {}) that is the set A alone exactly when A is a
circuit-hyperplane, r(A) = r(M) - 1 = |A| - 1, and rank_slices sets
that entry to r(A) directly (_alone).  T, B0 and every other member are
applied in row passes: the table is cut into rows of about sqrt(_CHUNK)
entries along which the high digits are fixed, and a member's term over
_CHUNK entries is the outer sum of a popcount vector of one row's sets
and one popcount per row start.  A table of N entries thus costs 2N
uint8 work for T and B0, 2N more per other member applied in passes,
and one entry per circuit-hyperplane set alone: a sparse paving
matroid's table is two passes.  Besides the table it holds a buffer of
at most _CHUNK entries and the popcount vectors.

Call A an attaining member for X when r(A) + |X - A| = r(X).  For any
family of (set, rank) pairs, valid or not, the minimum formula gives

    r(X + e) = r(X)  iff  e lies in some attaining member, and
    r(X - e) < r(X)  iff  e misses some attaining member,

so cl(X) is X plus the union of the attaining members and the cyclic part
of X (X without the coloops of M|X) is X within their intersection.  One
pass over the family yields the rank and both (Matroid._attaining).
Duals, minors and components are built from these passes on the lattice
alone, so no construction of a matroid builds a 2^n table.

validate_axioms() is the only entry point that builds a Matroid from raw
data.  It checks, in order: that the family has a least and a greatest
member, (Z1) r(least) = 0, (Z2) 0 < r(Y)-r(X) < |Y-X| for nested pairs,
and then, on the incomparable pairs, that the family is a lattice under
inclusion and meets (Z3) submodularity with the parallel-correction
term, stated with the lattice's own join and meet.  Bonin and de Mier
("The lattice of cyclic flats of a matroid", Ann. Comb. 12, 2008) show
that these conditions characterise the families of cyclic flats, and
that cl(X | Y) and cyc(X & Y) are then that join and meet, so accepting
a family needs no rank formula.  One Python sweep of m(m-1)/2 steps over
the m members checks (Z2) and lists the incomparable pairs; the joins,
meets and (Z3) sums of those pairs are read off an m x 2m bool
containment matrix by one numpy pass per block of at most _CHUNK // m
pairs, O(m^3) bool work in all, whatever the ground-set size.  The first
pair (X, Y) in sweep order that fails is named on the same matrix: with
J the smallest member containing both, a member V containing both but
not J means X and Y have no join (Z0, witness (X, Y, J, V)); otherwise
(Z3) fails with J as the join and the largest member inside both as the
meet (witness (X, Y)).  A missing meet is never the first failure: if a
lower bound W of X and Y misses the largest one K, then K and W, both
smaller than X and Y and so swept earlier, have no join.  Violations
raise with a witness attached; nothing is silently repaired.
"""

from __future__ import annotations

import json
from typing import Iterable, NoReturn, Optional, Sequence

import numpy as np

from .errors import (
    BudgetExceeded,
    HasLoops,
    Z0Violation,
    Z1Violation,
    Z2Violation,
    Z3Violation,
)

MAX_GROUND = 62          # bitmask ground-set cap
TABLE_BUDGET = 24        # entries of one rank table, as a power of two
_CHUNK = 1 << 16         # entries per vectorized slice or block


def popcount(x: int) -> int:
    return x.bit_count()


class GroundSet:
    """An ordered tuple of distinct string labels with mask conversions."""

    __slots__ = ("labels", "index", "n", "full")

    def __init__(self, labels: Sequence[str]):
        labels = tuple(str(x) for x in labels)
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate ground-set labels")
        if len(labels) > MAX_GROUND:
            raise ValueError("ground set larger than %d elements" % MAX_GROUND)
        self.labels = labels
        self.index = {lab: i for i, lab in enumerate(labels)}
        self.n = len(labels)
        self.full = (1 << self.n) - 1

    def mask_of(self, elements: Iterable[str]) -> int:
        m = 0
        for e in elements:
            e = str(e)
            if e not in self.index:
                raise ValueError("unknown element %r" % e)
            m |= 1 << self.index[e]
        return m

    def labels_of(self, mask: int) -> tuple:
        out = []
        mask &= self.full
        while mask:
            low = mask & -mask
            out.append(self.labels[low.bit_length() - 1])
            mask ^= low
        return tuple(out)

    def __eq__(self, other):
        return isinstance(other, GroundSet) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return "GroundSet(%r)" % (self.labels,)


def _label_key(ground: GroundSet, mask: int):
    # canonical set order: by size, then lexicographically by label tuple
    return (popcount(mask), ground.labels_of(mask))


class Matroid:
    """A matroid given by its cyclic flats and their ranks.

    Instances are built through validate_axioms() (or the convenience
    constructors in this module); the raw __init__ trusts its input.
    zee is a tuple of (mask, rank) pairs sorted by (size, label order).
    """

    __slots__ = ("ground", "zee", "rank_total", "loops", "coloops",
                 "_rank_cache", "_table", "_space", "__weakref__")

    def __init__(self, ground: GroundSet, zee: Sequence[tuple]):
        self.ground = ground
        self.zee = tuple(sorted(zee, key=lambda ar: _label_key(ground, ar[0])))
        self._rank_cache = {}
        self._table = None
        self._space = None        # orbits.clonal_space
        least = self.zee[0][0]
        for a, _ in self.zee:
            least &= a
        top = 0
        for a, _ in self.zee:
            top |= a
        self.loops = least
        self.coloops = ground.full & ~top
        self.rank_total = self.rank(ground.full)

    # -- rank and derived predicates ------------------------------------

    def rank(self, mask: int) -> int:
        got = self._rank_cache.get(mask)
        if got is None:
            got = self._rank_cache[mask] = self._attaining(mask)[0]
        return got

    def _attaining(self, mask: int) -> tuple:
        """(r(mask), union, intersection) of the attaining members of the
        minimum formula for mask; see the module docstring."""
        best = None
        for a, r in self.zee:
            v = r + (mask & ~a).bit_count()
            if best is None or v < best:
                best, union, inter = v, a, a
            elif v == best:
                union |= a
                inter &= a
        return best, union, inter

    def closure(self, mask: int) -> int:
        return mask | self._attaining(mask)[1]

    def is_flat(self, mask: int) -> bool:
        return not self._attaining(mask)[1] & ~mask

    def cyclic_part(self, mask: int) -> int:
        """mask without the coloops of the restriction to mask."""
        return mask & self._attaining(mask)[2]

    def is_cyclic(self, mask: int) -> bool:
        return not mask & ~self._attaining(mask)[2]

    def lam(self, mask: int) -> int:
        """Connectivity function lambda(X) = r(X) + r(E-X) - r(M)."""
        return (self.rank(mask) + self.rank(self.ground.full & ~mask)
                - self.rank_total)

    # -- whole-powerset tables -------------------------------------------

    def rank_table(self, threads: int = 1) -> np.ndarray:
        """Vector of r(X) for every mask X, as uint8, built once."""
        if self._table is None:
            n = self.ground.n
            B = row_length([1 << i for i in range(n + 1)])
            self._table = rank_slices(
                self, np.arange(B, dtype=np.uint64),
                np.arange(0, 1 << n, B, dtype=np.uint64), int)
        return self._table

    def lam_table(self, threads: int = 1) -> np.ndarray:
        """Vector of lambda(X) for every mask X, as int16."""
        return lam_of_ranks(self.rank_table(), self.rank_total)

    # -- structure --------------------------------------------------------

    def dual(self):
        """Dual matroid: complements of cyclic flats, corank function.

        X is a cyclic flat of M exactly when E - X is a cyclic flat of
        M*, and r*(E - X) = |E - X| + r(X) - r(M).  The complements of a
        valid family, with these ranks, are therefore the family of the
        matroid M*, which satisfies the axioms; no re-validation is needed.
        """
        full = self.ground.full
        n = self.ground.n
        zee = [(full & ~a, (n - popcount(a)) + r - self.rank_total)
               for a, r in self.zee]
        return Matroid(self.ground, zee)

    def delete(self, mask: int):
        return self._minor(mask, 0)

    def contract(self, mask: int):
        return self._minor(0, mask)

    def minor(self, delete_mask: int, contract_mask: int):
        if delete_mask & contract_mask:
            raise ValueError("delete and contract sets overlap")
        return self._minor(delete_mask, contract_mask)

    def _minor(self, dmask: int, cmask: int):
        """M / cmask \\ dmask on the lattice, validated once.

        Each rule takes one pass of the rank formula per cyclic flat Z:

          Z(M\\X) = { cyc(Z - X) },  rank r(Z - X) minus its coloops;
          Z(M/X) = { cl(Z | X) - X },  rank r(Z | X) - r(X).

        Deletion: a cyclic flat Y of M\\X is cyclic in M, Z = cl(Y) is a
        cyclic flat of M with Z - X = Y, so Y = cyc(Z - X); and the cyclic
        part of a flat is a flat, since a coloop of M|F lies outside
        cl(F - e).  Contraction is the same rule carried through
        M/X = (M* \\ X)*: cyc* and cl* of a set are the complements of cl
        and cyc of its complement.  The contraction keeps cmask as loops,
        which lie in every cyclic flat, so the deletion runs on the same
        ground set and both sets are dropped at the end.
        """
        if (dmask | cmask) & ~self.ground.full:
            raise ValueError("minor of a set outside the ground set")
        M = self
        if cmask:
            base = self.rank(cmask)
            zee = []
            for a, _ in self.zee:
                r, union, _ = self._attaining(a | cmask)
                zee.append((a | cmask | union, r - base))
            M = Matroid(self.ground, zee)
        zee = []
        for a, _ in M.zee:
            rest = a & ~dmask
            r, _, inter = M._attaining(rest)
            zee.append((rest & inter, r - popcount(rest & ~inter)))
        keep = [i for i in range(self.ground.n)
                if not (dmask | cmask) >> i & 1]
        flats = {sum(1 << j for j, i in enumerate(keep) if a >> i & 1): r
                 for a, r in zee}
        ground = GroundSet([self.ground.labels[i] for i in keep])
        return validate_axioms(flats.items(), ground)

    def _components(self, mask: int, contract: int = 0) -> list:
        """Connected components of (M / contract) | mask, ordered by
        lowest element; mask and contract are disjoint.

        The rank of M / contract is r(X | contract) - r(contract), so the
        greedy basis B of mask starts at contract with rank r(contract)
        and every rank call keeps contract in the set.  Each non-loop e
        outside B is joined with the b in B on its fundamental circuit,
        those with r(B - b + e) = r(B); the components are the classes of
        these joins, so loops and coloops stay single.  O(|mask|^2) rank
        calls, and no minor is built.
        """
        elems = [i for i in range(self.ground.n) if mask >> i & 1]
        basis, rb = contract, self.rank(contract)
        for i in elems:
            if self.rank(basis | 1 << i) > rb:
                basis |= 1 << i
                rb += 1
        comps = [1 << i for i in elems]
        for e in elems:
            if not (basis | self.loops) >> e & 1:
                circuit = 1 << e | sum(
                    1 << b for b in elems if basis >> b & 1
                    and self.rank(basis ^ 1 << b | 1 << e) == rb)
                comps = ([c for c in comps if not c & circuit]
                         + [sum(c for c in comps if c & circuit)])
        return sorted(comps, key=lambda c: c & -c)

    def components(self) -> list:
        """Connected components as masks (loops are singleton components)."""
        return self._components(self.ground.full)

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def connected_flats(self, proper: bool = True) -> list:
        """Connected flats with at least two elements, plus rank criteria.

        Returns masks of the connected flats of the matroid; loops make the
        notion degenerate, so they are rejected.  A connected flat with two
        or more elements has no coloops in its restriction, hence is a
        cyclic flat; singleton flats are connected too and are included.
        With proper=True the ground set itself is excluded.
        """
        if self.loops:
            raise HasLoops("connected flats are only computed for loopless "
                           "matroids")
        singles = [1 << i for i in range(self.ground.n)
                   if self.closure(1 << i) == 1 << i]
        out = [a for a in [a for a, _ in self.zee if a] + singles
               if not (proper and a == self.ground.full)
               and len(self._components(a)) == 1]
        out.sort(key=lambda msk: _label_key(self.ground, msk))
        return out

    def hyperplanes(self) -> list:
        """Masks of rank (r-1) flats, ascending: the rank-(r-1) sets of the
        table that every added element raises."""
        table = self.rank_table()
        cand = np.nonzero(table == self.rank_total - 1)[0]
        for b in range(self.ground.n):
            grown = cand | (1 << b)
            cand = cand[(grown == cand) | (table[grown] > table[cand])]
        return cand.tolist()

    def clonal_classes(self) -> list:
        """Partition of E into clonal classes, as masks.

        Two elements are clones when swapping them is an automorphism; with
        the cyclic-flat representation that is exactly "the two elements lie
        in the same members of the family".
        """
        return sorted(refined(self.ground, [a for a, _ in self.zee]),
                      key=lambda msk: _label_key(self.ground, msk))

    # -- comparisons and conversions --------------------------------------

    def equals(self, other: "Matroid") -> bool:
        """Equality as labeled matroids (ground order may differ)."""
        if set(self.ground.labels) != set(other.ground.labels):
            return False
        mine = {(frozenset(self.ground.labels_of(a)), r) for a, r in self.zee}
        theirs = {(frozenset(other.ground.labels_of(a)), r)
                  for a, r in other.zee}
        return mine == theirs

    def relabel(self, mapping: dict) -> "Matroid":
        """Rename elements; mapping must be injective on the labels."""
        new = [str(mapping.get(lab, lab)) for lab in self.ground.labels]
        ground = GroundSet(new)   # raises on collisions
        return Matroid(ground, self.zee)

    def restriction(self, mask: int):
        if mask & ~self.ground.full:
            raise ValueError("restriction to a set outside the ground set")
        return self.delete(self.ground.full & ~mask)

    def to_json_dict(self) -> dict:
        flats = [(sorted(self.ground.labels_of(a)), int(r))
                 for a, r in self.zee]
        flats.sort(key=lambda sr: (len(sr[0]), sr[0]))
        return {
            "elements": list(self.ground.labels),
            "cyclic_flats": [{"set": s, "rank": r} for s, r in flats],
        }

    def __repr__(self):
        return "Matroid(n=%d, r=%d, cyclic_flats=%d)" % (
            self.ground.n, self.rank_total, len(self.zee))


def refined(ground: GroundSet, cuts) -> list:
    """The parts of the ground set that no mask in cuts splits."""
    parts = [ground.full] if ground.n else []
    for a in cuts:
        parts = [p for c in parts for p in (c & a, c & ~a) if p]
    return parts


# -- vectorized helpers ----------------------------------------------------

def rank_of_mask_array(M: Matroid, masks: np.ndarray) -> np.ndarray:
    """Evaluate the cyclic-flat rank formula on an array of masks, as
    uint8 (ranks are at most 62); widen before adding ranks up."""
    masks = masks.astype(np.uint64, copy=False)
    out = np.full(masks.shape, 255, dtype=np.uint8)
    for a, r in M.zee:
        cand = np.bitwise_count(masks & np.uint64(M.ground.full & ~a))
        cand += np.uint8(r)
        np.minimum(out, cand, out=out)
    return out


def row_length(strides: Sequence[int]) -> int:
    """The row length B of a table over a mixed-radix numbering: the
    smallest of the ascending strides (the number of states last) with
    B^2 >= min(count, _CHUNK), so the digits at and above B are fixed
    along a row.  Tables of more than 2^TABLE_BUDGET states are refused
    here, before any row is built."""
    count = strides[-1]
    if count > 1 << TABLE_BUDGET:
        raise BudgetExceeded("rank table of %d entries, budget is 2^%d"
                             % (count, TABLE_BUDGET))
    return min(st for st in strides if st * st >= min(count, _CHUNK))


def rank_slices(M: Matroid, low: np.ndarray, high: np.ndarray,
                number) -> np.ndarray:
    """The uint8 rank table of the states of a numbering, with number
    mapping a set (an int mask) to its state: int for the 2^n masks,
    OrbitSpace.index_of for count vectors.

    The members of _alone are set directly at their own states; T, B0
    and every other member are applied in row passes (module
    docstring).  The table is cut into rows of B = low.size states
    (row_length): low holds the uint64 sets of the states of row 0 and
    high those of the row starts, so state j*B + i has the set
    low[i] | high[j].  For a member A in the passes

        r(A) + |X - A| = low_A[i] + col_A[j],

    with low_A[i] = r(A) + |low[i] - A| and col_A[j] = |high[j] - A|.
    The vector low_A is computed once per table and col_A for _CHUNK // B
    rows at a time, so a member costs one broadcast add and one minimum
    over those rows, both uint8.  A table of N states thus costs 2N
    uint8 work for T and B0, 2N per other member in the passes and one
    entry per member set alone, plus O(d * (B + N / B)) popcounts for
    the d members in the passes, with one buffer of at most _CHUNK
    entries and (d, B) and (d, _CHUNK // B) vectors beside the table.
    """
    B = low.size
    alone = _alone(M)
    dense = [(a, r) for a, r in M.zee if a not in alone] if alone else M.zee
    comp = np.array([M.ground.full & ~a for a, _ in dense],
                    dtype=np.uint64)[:, None]
    ranks = np.array([r for _, r in dense], dtype=np.uint8)[:, None]
    # |set - A|, the member A on axis 0 and the set on axis 1
    first = (np.bitwise_count(comp & low) + ranks)[:, None, :]
    table = np.empty(B * high.size, dtype=np.uint8)
    rows = table.reshape(-1, B)
    step = max(1, _CHUNK // B)
    buf = np.empty(rows[:step].shape, dtype=np.uint8)
    for start in range(0, len(rows), step):
        part = rows[start:start + step]
        cols = np.bitwise_count(comp & high[start:start + step])[:, :, None]
        tmp = buf[:len(part)]
        np.add(cols[0], first[0], out=part)
        for col, lo in zip(cols[1:], first[1:]):
            np.add(col, lo, out=tmp)
            np.minimum(part, tmp, out=part)
    for a in alone:
        table[number(a)] = M.rank_total - 1
    return table


def _alone(M: Matroid) -> set:
    """The members that rank_slices sets alone: the circuit-hyperplanes,
    when M has no loops or coloops."""
    if M.loops | M.coloops:
        return set()
    return {a for a, r in M.zee if a.bit_count() == M.rank_total == r + 1}


def lam_of_ranks(ranks: np.ndarray, rank_total: int) -> np.ndarray:
    """lambda = r(X) + r(E-X) - r(M) of a rank table in which reversal
    pairs each entry with its complement (masks, or count-vector states
    x -> s - x), as int16."""
    lam = np.add(ranks, ranks[::-1], dtype=np.int16)
    lam -= rank_total
    return lam


# -- validation -------------------------------------------------------------

def validate_axioms(flats, ground) -> Matroid:
    """Check the cyclic-flat axioms and build the matroid.

    flats: iterable of (mask, rank) pairs, or of ({labels}, rank) pairs.
    ground: a GroundSet or a sequence of labels.

    Raises Z0Violation / Z1Violation / Z2Violation / Z3Violation with a
    witness, or ValueError for malformed input (duplicates, bad ranks,
    sets outside the ground set).
    """
    if not isinstance(ground, GroundSet):
        ground = GroundSet(ground)
    recs = []
    for item in flats:
        a, r = item
        if not isinstance(a, int):
            a = ground.mask_of(a)
        if a & ~ground.full:
            raise ValueError("cyclic flat outside the ground set")
        if not isinstance(r, int) or isinstance(r, bool) or r < 0:
            raise ValueError("ranks must be nonnegative integers")
        recs.append((a, r))
    if not recs:
        raise ValueError("the family of cyclic flats must be nonempty")
    byset = {}
    for a, r in recs:
        if a in byset and byset[a] != r:
            raise ValueError("the same set listed with two ranks")
        byset[a] = r
    M = Matroid(ground, byset.items())
    recs = M.zee
    meet_all = M.loops
    join_all = ground.full & ~M.coloops
    if meet_all not in byset:
        raise Z0Violation("no least member: the intersection of the family "
                          "is not in the family",
                          witness=ground.labels_of(meet_all))
    if join_all not in byset:
        raise Z0Violation("no greatest member: the union of the family is "
                          "not in the family",
                          witness=ground.labels_of(join_all))

    # (Z1) least member has rank zero
    if byset[meet_all] != 0:
        raise Z1Violation(
            "least member %s has rank %d, expected 0"
            % (sorted(ground.labels_of(meet_all)), byset[meet_all]),
            witness=ground.labels_of(meet_all))

    # (Z2) strict, properly submaximal growth on nested pairs.  As recs is
    # sorted by size, a member can lie only in a later one; the same sweep
    # lists the incomparable pairs i < j in sweep order, as i * m + j.
    m = len(recs)
    pairs = []
    for i, (x, rx) in enumerate(recs):
        for j, (y, ry) in enumerate(recs[i + 1:], i + 1):
            if x & ~y:
                pairs.append(i * m + j)
                continue
            gap = ry - rx
            if not (0 < gap < popcount(y & ~x)):
                raise Z2Violation(
                    "nested pair %s < %s has rank gap %d over %d new "
                    "elements" % (sorted(ground.labels_of(x)),
                                  sorted(ground.labels_of(y)), gap,
                                  popcount(y & ~x)),
                    witness=(ground.labels_of(x), ground.labels_of(y)))
    if not pairs:
        return M

    # (Z0) and (Z3) from the containment order, which decides validity by
    # the theorem of Bonin and de Mier cited above.  Row i of order holds m
    # flags for the members containing member i, then m for those contained
    # in it, the last member first.  The flags common to the rows of a pair
    # are its upper and lower bounds; as recs is sorted by size, the first
    # upper flag is a smallest upper bound and the first lower flag a
    # largest lower bound.  Every member containing that upper bound is an
    # upper bound too, so it is the join exactly when the pair has as many
    # upper bounds as it has members above it (itself included); likewise
    # for the meet.  Neither count can fall short of that of its bound, so
    # one sum checks both.  The first failing pair is named by
    # _raise_order_violation.
    masks = np.array([a for a, _ in recs], dtype=np.uint64)
    ranks = np.array([r for _, r in recs], dtype=np.int16)
    common = masks[:, None] & masks
    sub = common == masks[:, None]
    order = np.concatenate((sub, sub.T[:, ::-1]), axis=1)
    above = sub.sum(axis=1)
    below = sub.sum(axis=0)
    # (Z3) as r(join) + r(meet) - |meet| <= r(X) + r(Y) - |X & Y|, since
    # the meet lies in X & Y
    slack = (ranks[:, None] + ranks - np.bitwise_count(common)).ravel()
    loss = ranks - np.bitwise_count(masks)
    pairs = np.array(pairs, dtype=np.intp)
    step = max(1, _CHUNK // m)
    for start in range(0, len(pairs), step):
        block = pairs[start:start + step]
        lo, hi = np.divmod(block, m)
        both = order[lo] & order[hi]
        join = np.argmax(both[:, :m], axis=1)
        meet = m - 1 - np.argmax(both[:, m:], axis=1)
        bad = both.sum(axis=1) != above[join] + below[meet]
        bad |= ranks[join] + loss[meet] > slack[block]
        if bad.any():
            _raise_order_violation(recs, ground, sub,
                                   *divmod(int(block[np.argmax(bad)]), m))
    return M


def _raise_order_violation(recs, ground, sub: np.ndarray, i: int,
                           j: int) -> NoReturn:
    """Raise the violation of the incomparable members i < j, the first
    pair that the order pass flags, from the containment matrix sub
    (sub[a, b] when member a lies in member b).

    The first member containing both is a smallest upper bound J; an
    upper bound V that misses J leaves the pair without a join.  Else the
    meet is the last member inside both, and (Z3) is what fails: a
    missing meet would have flagged an earlier pair (module docstring).
    """
    (x, rx), (y, ry) = recs[i], recs[j]
    upper = sub[i] & sub[j]
    join = int(np.argmax(upper))
    stray = upper & ~sub[join]
    if stray.any():
        w = [ground.labels_of(recs[k][0])
             for k in (i, j, join, int(np.argmax(stray)))]
        raise Z0Violation(
            "%s and %s have no join: the upper bound %s does not contain "
            "their smallest upper bound %s"
            % tuple(sorted(w[k]) for k in (0, 1, 3, 2)), witness=tuple(w))
    lower = sub[:, i] & sub[:, j]
    mt, rm = recs[len(recs) - 1 - int(np.argmax(lower[::-1]))]
    correction = popcount((x & y) & ~mt)
    total = recs[join][1] + rm + correction
    raise Z3Violation(
        "pair %s, %s: r(join)+r(meet)+%d = %d exceeds r(X)+r(Y) = %d"
        % (sorted(ground.labels_of(x)), sorted(ground.labels_of(y)),
           correction, total, rx + ry),
        witness=(ground.labels_of(x), ground.labels_of(y)))


# -- constructors -----------------------------------------------------------

def uniform(r: int, n: int, labels: Optional[Sequence[str]] = None) -> Matroid:
    """The uniform matroid U_{r,n}."""
    if labels is None:
        labels = [str(i + 1) for i in range(n)]
    ground = GroundSet(labels)
    if len(labels) != n:
        raise ValueError("label count does not match n")
    if not 0 <= r <= n:
        raise ValueError("need 0 <= r <= n")
    if r == 0:
        zee = [(ground.full, 0)]
    elif r == n:
        zee = [(0, 0)]
    else:
        zee = [(0, 0), (ground.full, r)]
    return validate_axioms(zee, ground)


def is_uniform(M: Matroid) -> Optional[tuple]:
    """Return (r, n) when M is uniform, else None."""
    n = M.ground.n
    r = M.rank_total
    if r == 0:
        return (0, n) if M.zee == ((M.ground.full, 0),) else None
    if r == n:
        return (r, n) if M.zee == ((0, 0),) else None
    want = tuple(sorted([(0, 0), (M.ground.full, r)]))
    have = tuple(sorted(M.zee))
    return (r, n) if want == have else None


def _json_list(obj: dict, key: str) -> list:
    """obj[key], which must be a JSON array: a string would otherwise be
    read as the list of its characters."""
    value = obj[key]
    if not isinstance(value, list):
        raise TypeError("%r must be a list, not %s"
                        % (key, type(value).__name__))
    return value


def _json_int(obj: dict, key: str) -> int:
    """obj[key], which must be a JSON integer: int() would take 2.7, "2"
    and false."""
    value = obj[key]
    if type(value) is not int:
        raise TypeError("%r must be an integer, not %s"
                        % (key, type(value).__name__))
    return value


def from_json_dict(obj: dict) -> Matroid:
    try:
        elements = GroundSet(_json_list(obj, "elements"))
        flats = [(set(_json_list(f, "set")), _json_int(f, "rank"))
                 for f in _json_list(obj, "cyclic_flats")]
    except (KeyError, TypeError) as exc:
        raise ValueError("malformed matroid JSON: %s" % exc)
    return validate_axioms(flats, elements)


def from_json(text: str) -> Matroid:
    return from_json_dict(json.loads(text))
