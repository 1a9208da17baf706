"""Count-vector state spaces over a partition into clonal classes.

Every cyclic flat is a union of clonal classes, so the rank of a set X
depends only on how many elements of each class X holds:

    r(x) = min over cyclic flats Z of  r(Z) + sum of x_c over classes c
                                       disjoint from Z.

Rank, lambda, the branch-width recursion and the rank-below tangle
families are therefore functions of the count vector x (a *state*), and
a scan over the prod(s_c + 1) states replaces a scan over the 2^n
subsets.  t-expansions give every class at least t elements.

A state is numbered densely, in mixed radix (s_c + 1): class c has stride
prod over earlier classes of (s_c' + 1).  One-element classes come
first, ordered by element index, so their digits are the low bits of
the number, with strides 2^j.  On a clone-free matroid every class is
one element, so the number of a state is the bitmask of the set and
every table below is the plain 2^n table.  x -> s - x reverses the
numbering, just as reversing a 2^n table pairs each mask with its
complement.

Scans over many states (tau/kappa, tangle checks, unions) stop above
2^STATE_BUDGET states; check_states is that one check.  A state number
is split once, as x = j*B + i at a stride B (core.row_length), and its
set is low[i] | high[j]: OrbitSpace.rows keeps the sets of the states of
row 0 and of the row starts.  Sizes and numbers of sets combine two such
vectors too, so no state is decoded digit by digit.

clonal_space(M) keeps one space per matroid, so the tau/kappa scan, the
Tutte histogram, the branch-width DP and the tangle checks of M share
one uint8 state rank table, built by core.rank_slices; without clones
it is the cached M.rank_table().  The int16 lambda table is kept next
to it, built once per space and read-only, so the scans, the tangle
checks and the branch-width engines read the same array.
"""

from __future__ import annotations

import weakref
from itertools import accumulate
from math import comb, prod
from operator import or_
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import Matroid, lam_of_ranks, popcount, rank_slices, row_length
from .errors import BudgetExceeded

STATE_BUDGET = 20      # states of one scan, as a power of two


def check_states(count: int, what: str):
    """Raise BudgetExceeded when `what` would visit more than
    2^STATE_BUDGET states."""
    if count > 1 << STATE_BUDGET:
        raise BudgetExceeded("%s over %d states, budget is 2^%d"
                             % (what, count, STATE_BUDGET))


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
        self.strides = []
        stride = 1
        for s in self.sizes:
            self.strides.append(stride)
            stride *= s + 1
        self.count = stride                   # number of states
        self.radix2 = len(members) == n       # clone-free layout
        # the digits of the one-element classes, the low bits of a number
        self.lo = (1 << self.sizes.count(1)) - 1
        # work of the branch-width recursion: ordered splits a + b = x
        # summed over all x, which is 3^n without clones
        self.pairs = prod(comb(s + 2, 2) for s in self.sizes)
        self._rows = None
        self._ranks = None
        self._lams = None

    # -- state tables ------------------------------------------------------

    def ranks(self) -> np.ndarray:
        """r(x) for every state, in dense order, as uint8: the rank of
        its canonical set."""
        if self.radix2:
            return self.M.rank_table()
        if self._ranks is None:
            self._ranks = rank_slices(self.M, *self.rows(), self.index_of)
        return self._ranks

    def lams(self) -> np.ndarray:
        """lambda(x) for every state, in dense order, as int16; built
        once and read-only, since every caller shares it."""
        if self._lams is None:
            self._lams = lam_of_ranks(self.ranks(), self.M.rank_total)
            self._lams.flags.writeable = False
        return self._lams

    def rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """(low, high): the canonical sets of the B states of row 0 and
        of the row starts jB, as uint64 masks, so state j*B + i has the
        set low[i] | high[j]; built once."""
        if self._rows is None:
            B = row_length(self.strides + [self.count])
            low = high = [0]        # Python ints: no numpy call per class
            for els, st in zip(self.members, self.strides):
                # class c varies slowest among the classes so far
                firsts = accumulate((1 << i for i in els), or_, initial=0)
                if st < B:
                    low = [f | x for f in firsts for x in low]
                else:
                    high = [f | x for f in firsts for x in high]
            self._rows = (np.array(low, dtype=np.uint64),
                          np.array(high, dtype=np.uint64))
        return self._rows

    def row_counts(self) -> Tuple[np.ndarray, np.ndarray]:
        """Like rows(), the numbers of sets prod C(s_c, x_c), as int64:
        state j*B + i stands for low[i] * high[j] sets."""
        low, high = self.rows()
        sets = np.concatenate([low, high])
        counts = np.ones(sets.size, dtype=np.int64)
        for s, m in zip(self.sizes, self.masks):
            if s > 1:            # x_c is the size of the set within c
                binom = np.array([comb(s, d) for d in range(s + 1)])
                counts *= binom[np.bitwise_count(sets & np.uint64(m))]
        return counts[:low.size], counts[low.size:]

    def sets(self, index: Optional[np.ndarray] = None) -> np.ndarray:
        """The canonical set of each dense state number in index (the
        first x_c elements of each class), as uint64 masks.  Among the
        sets of a state it is the smallest mask.  Without index, the
        sets of all states in dense order."""
        low, high = self.rows()
        if index is None:
            return np.bitwise_or.outer(high, low).ravel()
        j, i = np.divmod(index, low.size)
        return high[j] | low[i]

    # -- states and concrete sets -------------------------------------------

    def take(self, index: int, within: int, last: bool = False) -> int:
        """The first x_c elements of each class inside `within`, or the
        last ones when `last` is set, for the state with dense number
        `index`."""
        out = 0
        for els, s, st in zip(self.members, self.sizes, self.strides):
            need = index // st % (s + 1)
            for i in (reversed(els) if last else els):
                if not need:
                    break
                if within >> i & 1:
                    out |= 1 << i
                    need -= 1
        return out

    def index_of(self, mask: int) -> int:
        """Dense number of the state of a concrete set."""
        return sum(st * popcount(mask & m)
                   for m, st in zip(self.masks, self.strides))

    def remainders(self, x, ys: np.ndarray) -> np.ndarray:
        """Dense numbers of max(0, s - x - y) for each y in ys; x is a
        state number or an int64 array that broadcasts against ys."""
        if self.radix2:
            return (self.count - 1) & ~(x | ys)
        out = 0
        for s, st in zip(self.sizes, self.strides):
            rest = s - x // st % (s + 1) - ys // st % (s + 1)
            out = out + st * np.maximum(rest, 0)
        return out


def clonal_space(M: Matroid) -> OrbitSpace:
    """OrbitSpace(M) over the clonal classes, built once and kept on M.

    The kept space refers to M weakly: a strong reference would make a
    cycle, and a dropped matroid's tables would wait for the cyclic
    garbage collector instead of being freed at once.
    """
    if M._space is None:
        M._space = OrbitSpace(weakref.proxy(M))
    return M._space
