"""Count-vector state spaces over a partition into clonal classes.

Every cyclic flat is a union of clonal classes, so the rank of a set X
depends only on how many elements of each class X holds:

    r(x) = min over cyclic flats Z of  r(Z) + sum of x_c over classes c
                                       disjoint from Z.

Rank, lambda, the branch-width recursion and the rank-below tangle
families are therefore functions of the count vector x (a *state*), and
a scan over the prod(s_c + 1) states replaces a scan over the 2^n
subsets.  t-expansions give every class at least t elements.

A state is packed into bit fields, one per class, each just wide enough
for 0..s_c.  One-element classes come first with 1-bit fields, ordered by
element index; wider fields sit above them.  On a clone-free matroid
every class is one element, so the packed state is the bitmask of the
set and every table below is the plain 2^n table.

States are also numbered densely in mixed radix (s_c + 1) with the same
class order.  The dense order is the packed order, and x -> s - x
reverses it, just as reversing a 2^n table pairs each mask with its
complement.

clonal_space(M) keeps one space per matroid, so the tau/kappa scan, the
Tutte histogram, the branch-width DP and the tangle checks of M share
one state rank table; without clones it is the cached M.rank_table().
"""

from __future__ import annotations

import weakref
from math import comb, prod
from typing import List, Optional, Sequence

import numpy as np

from .core import Matroid, popcount, rank_of_mask_array


class OrbitSpace:
    """The count-vector states of M over a partition of its ground set.

    classes: masks partitioning the ground set, by default
    M.clonal_classes().  Every cyclic flat must be a union of classes;
    the singleton partition always qualifies.
    """

    def __init__(self, M: Matroid, classes: Optional[Sequence[int]] = None):
        if classes is None:
            classes = M.clonal_classes()
        n = M.ground.n
        members = [[i for i in range(n) if c >> i & 1] for c in classes]
        members.sort(key=lambda els: (len(els) > 1, els[0]))
        self.M = M
        self.members: List[List[int]] = members
        self.masks = [sum(1 << i for i in els) for els in members]
        self.sizes = [len(els) for els in members]
        self.widths = [s.bit_length() for s in self.sizes]
        self.offsets = []
        self.strides = []
        off, stride = 0, 1
        for s, w in zip(self.sizes, self.widths):
            self.offsets.append(off)
            self.strides.append(stride)
            off += w
            stride *= s + 1
        self.count = stride                   # number of states
        self.radix2 = len(members) == n       # clone-free layout
        self.full = sum(s << o for s, o in zip(self.sizes, self.offsets))
        self.lo = sum(1 << o for s, o in zip(self.sizes, self.offsets)
                      if s == 1)
        self.class_of = [0] * n
        for c, els in enumerate(members):
            for i in els:
                self.class_of[i] = c
        # work of the branch-width recursion: ordered splits a + b = x
        # summed over all x, which is 3^n without clones
        self.pairs = prod(comb(s + 2, 2) for s in self.sizes)
        # firsts[c][d]: mask of the first d elements of class c
        self._firsts = []
        for els in members:
            firsts = [0]
            for i in els:
                firsts.append(firsts[-1] | 1 << i)
            self._firsts.append(np.array(firsts, dtype=np.uint64))
        self._packed = None
        self._digits = None
        self._sets = None
        self._ranks = None

    # -- state tables ------------------------------------------------------

    def digits(self) -> np.ndarray:
        """Per-class counts of every state, shape (classes, count)."""
        if self._digits is None:
            st = np.array(self.strides, dtype=np.int64)[:, None]
            radix = np.array(self.sizes, dtype=np.int64)[:, None] + 1
            index = np.arange(self.count, dtype=np.int64)
            self._digits = (index[None, :] // st) % radix
        return self._digits

    def packed(self):
        """Packed value of every state in dense order (ascending)."""
        if self._packed is None:
            if self.radix2:
                self._packed = range(self.count)
            else:
                offs = np.array(self.offsets, dtype=np.int64)[:, None]
                self._packed = (self.digits() << offs).sum(axis=0).tolist()
        return self._packed

    def ranks(self) -> np.ndarray:
        """r(x) for every state, in dense order: the rank of its
        canonical set."""
        if self.radix2:
            return self.M.rank_table()
        if self._ranks is None:
            self._ranks = rank_of_mask_array(self.M, self.sets())
        return self._ranks

    def lams(self) -> np.ndarray:
        """lambda(x) for every state, in dense order, as int16."""
        if self.radix2:
            return self.M.lam_table()
        t = self.ranks()
        lam = np.add(t, t[::-1], dtype=np.int16)
        lam -= self.M.rank_total
        return lam

    def sets(self, index: Optional[np.ndarray] = None) -> np.ndarray:
        """The canonical set of each dense state number in index (the
        first x_c elements of each class), as uint64 masks.  Among the
        sets of a state it is the smallest mask.  Without index, the
        sets of all states in dense order, kept when there are clones."""
        if index is None:
            if self.radix2:
                return np.arange(self.count, dtype=np.uint64)
            if self._sets is None:
                # mixed radix: class c varies slowest among classes <= c
                out = np.zeros(1, dtype=np.uint64)
                for firsts in self._firsts:
                    out = (firsts[:, None] | out[None, :]).ravel()
                self._sets = out
            return self._sets
        index = index.astype(np.uint64, copy=False)
        if self.radix2:
            return index
        out = np.zeros(index.shape, dtype=np.uint64)
        for els, s, st, firsts in zip(self.members, self.sizes,
                                      self.strides, self._firsts):
            if s == 1:      # a 1-bit field: stride st is 2^j
                j = st.bit_length() - 1
                out |= (index >> np.uint64(j) & np.uint64(1)) \
                    << np.uint64(els[0])
            else:
                out |= firsts[index // st % (s + 1)]
        return out

    def weights(self, index: np.ndarray) -> np.ndarray:
        """The number of sets in each dense state in index,
        prod C(s_c, x_c), as int64."""
        out = np.ones(index.shape, dtype=np.int64)
        for s, st in zip(self.sizes, self.strides):
            if s > 1:
                binom = np.array([comb(s, d) for d in range(s + 1)],
                                 dtype=np.int64)
                out *= binom[index // st % (s + 1)]
        return out

    def by_state(self, values: np.ndarray):
        """values (dense order) as a lookup keyed by packed state."""
        if self.radix2:
            return values.tolist()
        return dict(zip(self.packed(), values.tolist()))

    def table(self):
        """An empty lookup keyed by packed state."""
        return [0] * self.count if self.radix2 else {}

    def borrows(self):
        """Tables for stepping the wide fields down in mixed radix.

        For a power of two b inside a wide field f, keep[b] masks the wide
        fields from f upward and below[b] the wide fields under f.
        """
        keep, below = {}, {}
        under = 0
        for s, w, o in zip(self.sizes, self.widths, self.offsets):
            if s == 1:
                continue
            field = ((1 << w) - 1) << o
            for j in range(w):
                below[1 << (o + j)] = under
            under |= field
        for b, m in below.items():
            keep[b] = under & ~m
        return keep, below

    # -- states and concrete sets -------------------------------------------

    def take(self, state: int, within: int) -> int:
        """The first x_c elements of each class inside `within`."""
        out = 0
        for els, w, o in zip(self.members, self.widths, self.offsets):
            need = (state >> o) & ((1 << w) - 1)
            for i in els:
                if not need:
                    break
                if within >> i & 1:
                    out |= 1 << i
                    need -= 1
        return out

    def canonical(self, index: int, last: bool = False) -> int:
        """A concrete set of the state with dense number `index`.

        It holds the first x_c elements of each class, or the last ones
        when `last` is set.
        """
        out = 0
        for els, s, st in zip(self.members, self.sizes, self.strides):
            d = (index // st) % (s + 1)
            for i in (els[s - d:] if last else els[:d]):
                out |= 1 << i
        return out

    def index_of(self, mask: int) -> int:
        """Dense number of the state of a concrete set."""
        return sum(st * popcount(mask & m)
                   for m, st in zip(self.masks, self.strides))

    def extend(self, mask: int, index: int) -> int:
        """A concrete set of the state `index` that contains `mask`.

        mask must fit in the state: no class holds more elements of mask
        than the state counts.
        """
        out = mask
        for els, m, s, st in zip(self.members, self.masks, self.sizes,
                                 self.strides):
            more = (index // st) % (s + 1) - popcount(mask & m)
            for i in els:
                if more <= 0:
                    break
                if not mask >> i & 1:
                    out |= 1 << i
                    more -= 1
        return out

    def above(self, index: int) -> np.ndarray:
        """Which states hold at least the counts of the state `index`."""
        if self.radix2:
            return (np.arange(self.count) & index) == index
        d = self.digits()
        return (d >= d[:, [index]]).all(axis=0)

    def remainders(self, x: int, ys: np.ndarray) -> np.ndarray:
        """Dense numbers of max(0, s - x - y) for each y in ys."""
        if self.radix2:
            return (self.count - 1) & ~(x | ys)
        d = self.digits()
        s = np.array(self.sizes, dtype=np.int64)[:, None]
        rest = np.maximum(0, s - d[:, [x]] - d[:, ys])
        return np.array(self.strides, dtype=np.int64) @ rest


def clonal_space(M: Matroid) -> OrbitSpace:
    """OrbitSpace(M) over the clonal classes, built once and kept on M.

    The kept space refers to M weakly: a strong reference would make a
    cycle, and a dropped matroid's tables would wait for the cyclic
    garbage collector instead of being freed at once.
    """
    if M._space is None:
        M._space = OrbitSpace(weakref.proxy(M))
    return M._space
