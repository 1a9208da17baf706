"""Branch decompositions, exact branch-width, tangles, certificates.

A branch decomposition is a cubic tree whose leaves are injectively
labeled by ground elements; each tree edge displays the bipartition of
labels induced by removing it, with width lambda(X)+1, and the width of
the decomposition is the maximum over edges.  Branch-width is the minimum
width over all decompositions.

Branch-width satisfies the recursion

    g(X) = lambda(X)+1                                 for |X| = 1
    g(X) = max(lambda(X)+1,
               min over bipartitions {A,B} of X of max(g(A), g(B)))

whose top value g(E) is the branch-width.  lambda and g depend only on
how many elements of each clonal class X holds, so everything runs on
count vectors (orbits.OrbitSpace).  g, lambda and the chosen splits are
lists indexed by the dense state number; a split of state x is a state
a <= x with complement x - a, both numbered the same way, and an optimal
decomposition is rebuilt by handing each side the first elements of
every class.  The worst-case work is the number of split pairs, prod
over classes of C(s_c+2, 2); without clones that is 3^n and the states
are the 2^n masks.

branch_width_exact picks one of two engines by that worst case.  Up to
TANGLE_PAIRS it runs the recursion bottom up over every state (_bottom_up).
The splits of x are scanned by descending number only until one has
max(g(A), g(B)) <= lambda(X)+1, since no split can bring g(X) lower, and
the tree takes the first split of least width scanned.  The budget is
checked first against the worst case: budget=b allows as many pairs as
an n = b clone-free matroid, so t-expansions run far beyond 18
elements: fig2_M^4 has n = 36 but three classes of 12, hence 91^3
(under 3^13) pairs.

Above TANGLE_PAIRS the tangles go first (_tangle_first):

1. A lower bound L.  The maximum order of a tangle equals the
   branch-width (Robertson-Seymour, Graph Minors X), so a verified
   tangle of order k gives bw >= k.  For the family {X : r(X) < c},
   axiom T1 admits one order, the largest lambda of a member plus 2;
   L is the best order that verifies over c = r(M) down to 1, or 1.
2. One decision, "E builds at width L" (the decision version of
   Oum-Seymour, "Testing branch-width", JCTB 97, 2007): a state x builds
   when lambda(x)+1 <= L and x is one element or some split of x has
   both sides building.  It runs top down with a memo, scans splits in
   the order above and stops at the first that builds: on fig2_N^6
   (n = 54) it examines 504 split pairs of a worst case of 1.2e9.  If E
   builds, L is the branch-width and the splits found are the tree.
   The budget counts the pairs examined, as the scan goes.
3. Otherwise bw >= L+1, and the bottom-up recursion runs with the base
   raised to max(lambda(X)+1, F), F = L+1, and the worst-case budget
   check.  That is still exact: g_F = max(g, F) satisfies the raised
   recursion, because max(F, min_s max(g(A), g(B))) =
   min_s max(g_F(A), g_F(B)), so g_F(E) = max(bw, F) = bw whenever
   F <= bw.  The higher base stops more split scans early.

Beyond the budget, a width is certified: an explicit decomposition gives
the upper bound, and a verified tangle of order k gives the lower bound
k.  Tangle axioms over the families {X : r(X) < c} are verified by
vectorized scans over the count-vector states; the three-sets axiom (T3)
reduces to pairs of maximal member states x, y whose remainder
max(0, s - x - y) lies in a member; that table is symmetric, so a block
of rows x is checked only against the columns from its first row on.
A bound big on the size of a member, read off the cyclic flats, settles
T3 without that sweep when 3 * big < n, and otherwise keeps only the
maximal members of at least n - 2 * big elements in it (verify_tangle).
Explicit member lists are checked on the 2^n masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import _CHUNK, GroundSet, Matroid, _json_list, popcount
from .errors import (
    BudgetExceeded,
    InvalidTangle,
    MalformedTree,
    MatroidError,
)
from .connectivity import flats_cover
from .expansion import ExpansionMap
from .orbits import OrbitSpace, check_states, clonal_space

DP_BUDGET = 18
TANGLE_PAIRS = 3 ** 10     # worst-case split pairs past which tangles go first


# -- branch decompositions --------------------------------------------------

@dataclass(frozen=True)
class BranchDecomposition:
    """A tree with labeled leaves; unlabeled leaves are normalized away."""

    vertices: Tuple[str, ...]
    edges: Tuple[Tuple[str, str], ...]
    leaf_labels: Dict[str, str]      # ground label -> vertex id

    @classmethod
    def build(cls, vertices, edges, leaf_labels) -> "BranchDecomposition":
        return cls(tuple(str(v) for v in vertices),
                   tuple((str(a), str(b)) for a, b in edges),
                   {str(k): str(v) for k, v in leaf_labels.items()})

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [[a, b] for a, b in self.edges],
            "leaf_labels": dict(sorted(self.leaf_labels.items())),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "BranchDecomposition":
        try:
            edges = _json_list(obj, "edges")
            if not all(isinstance(e, list) and len(e) == 2 for e in edges):
                raise TypeError("each edge must be a list of two vertices")
            if not isinstance(obj["leaf_labels"], dict):
                raise TypeError("'leaf_labels' must be an object")
            return cls.build(_json_list(obj, "vertices"), edges,
                             obj["leaf_labels"])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise MalformedTree("malformed decomposition JSON: %s" % exc)

    def normalized(self, ground: GroundSet):
        """Adjacency of the normalized tree, or raise MalformedTree.

        Checks the input is a tree whose label map is a bijection onto
        distinct vertices, prunes unlabeled leaves, suppresses degree-2
        vertices, and verifies the result is a cubic tree.  Both steps
        keep a tree a tree, and suppression changes no other degree, so
        one pass of each suffices.  Vertices keep the input order, and
        neighbours (dicts as ordered sets) the edge order.
        """
        labels = set(ground.labels)
        if set(self.leaf_labels) != labels:
            missing = labels - set(self.leaf_labels)
            extra = set(self.leaf_labels) - labels
            raise MalformedTree(
                "leaf labels do not match the ground set "
                "(missing %s, extra %s)" % (sorted(missing), sorted(extra)))
        adj: Dict[str, Dict[str, None]] = {v: {} for v in self.vertices}
        if len(adj) != len(self.vertices):
            raise MalformedTree("duplicate vertex ids")
        for a, b in self.edges:
            if a not in adj or b not in adj:
                raise MalformedTree("edge endpoint %r is not a vertex"
                                    % (a if a not in adj else b))
            if a == b or b in adj[a]:
                raise MalformedTree("self-loop or repeated edge at %r" % a)
            adj[a][b] = adj[b][a] = None
        if len(self.edges) != len(adj) - (1 if adj else 0):
            raise MalformedTree("edge count does not match a tree")
        if len(_walk(adj)) != len(adj):
            raise MalformedTree("tree is not connected")
        label_of = {}
        for lab, v in self.leaf_labels.items():
            if v not in adj:
                raise MalformedTree("label %r points at unknown vertex %r"
                                    % (lab, v))
            if v in label_of:
                raise MalformedTree("vertex %r carries two labels" % v)
            label_of[v] = lab
        # prune unlabeled leaves (a lone unlabeled vertex stays), then
        # suppress unlabeled degree-2 vertices
        stack = [v for v, nb in adj.items()
                 if len(nb) <= 1 and v not in label_of]
        while stack and len(adj) > 1:
            v = stack.pop()
            for u in adj.pop(v):
                del adj[u][v]
                if len(adj[u]) == 1 and u not in label_of:
                    stack.append(u)
        for v in [v for v, nb in adj.items()
                  if len(nb) == 2 and v not in label_of]:
            a, b = adj.pop(v)
            del adj[a][v], adj[b][v]
            adj[a][b] = adj[b][a] = None
        for v, nb in adj.items():
            if v in label_of:
                if len(nb) > 1:
                    raise MalformedTree("labeled vertex %r is not a leaf" % v)
            elif len(nb) != 3:
                raise MalformedTree(
                    "internal vertex %r has degree %d, need 3"
                    % (v, len(nb)))
        return adj, dict(self.leaf_labels)


def _walk(adj) -> List[Tuple[str, Optional[str]]]:
    """(vertex, parent) for each vertex reached from the first one, in
    preorder; the root comes first, with parent None.  It keeps a visited
    set, so it ends on any graph, trees or not."""
    out = []
    seen = set(list(adj)[:1])
    stack = [(v, None) for v in seen]
    while stack:
        v, p = stack.pop()
        out.append((v, p))
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                stack.append((u, v))
    return out


def displayed_sets(D: BranchDecomposition, M: Matroid
                   ) -> List[Tuple[Tuple[str, str], int]]:
    """For each normalized tree edge (v, parent), the mask displayed on
    the v side."""
    adj, labeled = D.normalized(M.ground)
    walk = _walk(adj)[1:]
    side = dict.fromkeys(adj, 0)
    for lab, v in labeled.items():
        side[v] = 1 << M.ground.index[lab]
    for v, p in reversed(walk):
        side[p] |= side[v]
    return [((v, p), side[v]) for v, p in walk]


def decomposition_width(M: Matroid, D: BranchDecomposition) -> int:
    """Max over edges of lambda(displayed)+1; |E| for ground sets of <=1,
    whose trees have no edge."""
    return max((M.lam(mask) + 1 for _, mask in displayed_sets(D, M)),
               default=M.ground.n)


# -- exact branch-width ------------------------------------------------------

def check_split_pairs(M: Matroid, budget: int = DP_BUDGET):
    """Raise BudgetExceeded when the exact DP on M does more split pairs
    than on a clone-free matroid of budget elements (at most 22)."""
    pairs = clonal_space(M).pairs
    cap = min(budget, 22)
    if pairs > 3 ** cap:
        raise BudgetExceeded(
            "exact branch-width does %d split pairs of work, budget is "
            "3^%d (an n = %d matroid without clones)" % (pairs, cap, cap))


def branch_width_exact(M: Matroid, budget: int = DP_BUDGET
                       ) -> Tuple[int, BranchDecomposition]:
    """Optimal width and a realizing decomposition: the bottom-up DP up
    to TANGLE_PAIRS worst-case split pairs, tangle first above."""
    if clonal_space(M).pairs > TANGLE_PAIRS:
        return _tangle_first(M, budget)
    check_split_pairs(M, budget)
    return _bottom_up(M)


def _bottom_up(M: Matroid, floor: int = 0
               ) -> Tuple[int, BranchDecomposition]:
    """The DP g_F with F = floor, which is bw(M) for any floor <= bw(M)."""
    n = M.ground.n
    if n <= 1:
        tree = _Tree("v")
        for lab in M.ground.labels:
            tree.vertex(lab)
        return n, tree.build()
    space = clonal_space(M)
    lam = space.lams().tolist()
    g = [0] * space.count
    split = [0] * space.count
    lo = space.lo
    wide = _wide(space)
    big = n + 2
    # The steps of _splits, inline: a generator costs this loop half
    # again its time.  No split can bring g(x) below max(lambda(x)+1,
    # floor), so the scan stops at the first split that reaches it.
    for x in range(1, space.count):
        xl = x & lo
        xh = x - xl
        ah = xh
        xm = x
        sub = x
        best = big
        bestc = 0
        lx = lam[x] + 1
        if lx < floor:
            lx = floor
        while True:
            if sub != ah:
                sub = (sub - 1) & xm
            elif ah:
                for st, nxt in wide:
                    if ah % nxt:
                        break
                ah += xh % st - st
                sub = xm = ah | xl
            else:
                break
            c = x - sub
            if sub < c:
                break
            a = g[sub]
            b = g[c]
            v = a if a > b else b
            if v < best:
                best = v
                bestc = c
                if v <= lx:
                    break
        g[x] = best if bestc and best > lx else lx
        split[x] = bestc
    return g[-1], _tree(space, split)


def _wide(space: OrbitSpace) -> List[Tuple[int, int]]:
    """(stride, next stride) of each wide class, lowest first."""
    return [(st, st * (s + 1)) for s, st in zip(space.sizes, space.strides)
            if s > 1]


def _splits(x: int, lo: int, wide) -> Iterator[Tuple[int, int]]:
    """The splits a + b = x with a >= b > 0, by descending a.

    The one-element classes are the low bits lo and step as submasks,
    (a - 1) & x; the wide part ah steps down in mixed radix: the lowest
    wide class holding a count loses one, and the classes under it
    refill from x.  Without clones only the first branch runs.
    """
    xl = x & lo
    xh = x - xl
    ah = xh
    xm = x
    sub = x
    while True:
        if sub != ah:
            sub = (sub - 1) & xm
        elif ah:
            for st, nxt in wide:
                if ah % nxt:
                    break
            ah += xh % st - st
            sub = xm = ah | xl
        else:
            return
        c = x - sub
        if sub < c:
            return
        yield sub, c


def _tree(space: OrbitSpace, split) -> BranchDecomposition:
    """The decomposition of the stored splits from the full state down
    (n >= 2)."""
    tree = _Tree("v")
    full = space.count - 1
    E = space.M.ground.full
    top = split[full]
    T = space.take(top, E)
    tree.join(_grow(tree, space, split, top, T),
              _grow(tree, space, split, full - top, E & ~T))
    return tree.build()


def _grow(tree: _Tree, space: OrbitSpace, split, x: int, X: int) -> str:
    """Subtree for state x from the stored splits; X is a concrete set
    with the counts of x, and each split hands its first part the first
    elements of every class."""
    c = split[x]
    if not c:
        return tree.vertex(space.M.ground.labels[X.bit_length() - 1])
    v = tree.vertex()
    C = space.take(c, X)
    tree.join(v, _grow(tree, space, split, c, C))
    tree.join(v, _grow(tree, space, split, x - c, X & ~C))
    return v


def _tangle_first(M: Matroid, budget: int = DP_BUDGET
                  ) -> Tuple[int, BranchDecomposition]:
    """bw(M) for n >= 2: decide E at the tangle bound L, else the DP
    floored at L + 1.  The decision counts the split pairs it examines
    against 3^min(budget, 22); the DP checks its worst case first."""
    space = clonal_space(M)
    check_states(space.count, "exact branch-width")
    L = _tangle_bound(M)
    d = _Decision(space, space.lams().tolist(), L, budget)
    if d.builds(space.count - 1):
        return L, _tree(space, d.split)
    check_split_pairs(M, budget)
    return _bottom_up(M, L + 1)


def _tangle_bound(M: Matroid) -> int:
    """The largest order of a verified rank-below tangle, or 1.

    T1 admits one order for the family {X : r(X) < c}: the largest
    lambda of a member plus 2, which does not grow as c falls, so the
    first c from r(M) down that verifies is the best.  c = r(M) + 1 is
    skipped: E is a member of that family, so it is never a tangle.
    """
    space = clonal_space(M)
    r = M.rank_total
    most = np.zeros(r + 1, dtype=np.int16)
    np.maximum.at(most, space.ranks(), space.lams())
    # orders[c - 1] is the order of the family {X : r(X) < c}
    orders = (np.maximum.accumulate(most) + 2).tolist()
    for c in range(r, 0, -1):
        if verify_tangle(M, Tangle(orders[c - 1], RankBelow(c)))[0]:
            return orders[c - 1]
    return 1


class _Decision:
    """Memoised top-down test "state x builds at width k": lambda(x)+1
    <= k, and x is one element or some split a + b = x has both sides
    building.  known[x] is 0 while unknown, 1 when x builds and 2 when it
    does not; split[x] is the second part of the split found.  Past
    3^min(budget, 22) examined split pairs it raises BudgetExceeded.
    Recursion goes through self, not through a closure naming itself, so
    no reference cycle keeps the tables alive after the call."""

    def __init__(self, space: OrbitSpace, lam: List[int], k: int,
                 budget: int):
        self.lam = lam
        self.k = k
        self.budget = min(budget, 22)
        self.pairs = 3 ** self.budget    # split pairs left to examine
        self.lo = space.lo
        self.wide = _wide(space)
        self.single = frozenset(space.strides)
        self.known = bytearray(space.count)
        self.split = [0] * space.count

    def builds(self, x: int) -> bool:
        """Does state x build, given lambda(x)+1 <= k?  Splits are
        scanned in the DP's order and the first that builds is kept."""
        known = self.known[x]
        if known:
            return known == 1
        ok = x in self.single
        if not ok:
            lam, k = self.lam, self.k
            for sub, c in _splits(x, self.lo, self.wide):
                self.pairs -= 1
                if self.pairs < 0:
                    raise BudgetExceeded(
                        "exact branch-width examined more than 3^%d split "
                        "pairs (the work of an n = %d matroid without "
                        "clones)" % (self.budget, self.budget))
                if (lam[sub] < k and lam[c] < k and self.builds(c)
                        and self.builds(sub)):
                    self.split[x] = c
                    ok = True
                    break
        self.known[x] = 1 if ok else 2
        return ok


# -- decomposition builders --------------------------------------------------

class _Tree:
    """A branch decomposition being written: fresh vertex ids prefix + count
    in creation order, the edges and the label map."""

    def __init__(self, prefix: str = "t"):
        self.prefix = prefix
        self.count = 0
        self.vertices: List[str] = []
        self.edges: List[Tuple[str, str]] = []
        self.leaf_labels: Dict[str, str] = {}

    def vertex(self, label: Optional[str] = None) -> str:
        """A fresh vertex, the leaf of `label` when one is given."""
        v = "%s%d" % (self.prefix, self.count)
        self.count += 1
        self.vertices.append(v)
        if label is not None:
            self.leaf_labels[label] = v
        return v

    def join(self, a: str, b: str):
        self.edges.append((a, b))

    def caterpillar(self, labs: Sequence[str], head: Optional[str] = None
                    ) -> str:
        """Attachable caterpillar holding labs; returns its root vertex.

        The root has degree 2 inside the caterpillar when |labs| >= 2 (so
        it needs one more edge from the caller) and is the bare leaf when
        |labs| == 1.  With |labs| >= 2 an existing vertex `head` can serve
        as the root instead of a fresh one.
        """
        if len(labs) == 1:
            return self.vertex(labs[0])
        spine = [self.vertex() if head is None else head]
        spine += [self.vertex() for _ in labs[2:]]
        for a, b in zip(spine, spine[1:]):
            self.join(a, b)
        # the last spine vertex carries the last two leaves
        for s, lab in zip(spine + spine[-1:], labs):
            self.join(s, self.vertex(lab))
        return spine[0]

    def build(self) -> BranchDecomposition:
        return BranchDecomposition.build(self.vertices, self.edges,
                                         self.leaf_labels)


def caterpillar_decomposition(labels: Sequence[str]) -> BranchDecomposition:
    """A path-shaped decomposition with the labels in the given order."""
    labels = [str(x) for x in labels]
    tree = _Tree()
    if len(labels) <= 2:
        ends = [tree.vertex(lab) for lab in labels]
        if len(ends) == 2:
            tree.join(*ends)
    else:
        root = tree.caterpillar(labels[1:])
        tree.join(tree.vertex(labels[0]), root)
    return tree.build()


def fan_decomposition(groups: Sequence[Sequence[str]]) -> BranchDecomposition:
    """Center vertex with three caterpillar arms, one per group."""
    groups = [[str(x) for x in grp] for grp in groups if grp]
    if len(groups) != 3:
        raise ValueError("fan decomposition needs exactly three nonempty "
                         "groups")
    tree = _Tree()
    center = tree.vertex()
    for grp in groups:
        tree.join(center, tree.caterpillar(grp))
    return tree.build()


def expand_decomposition(D: BranchDecomposition, emap: ExpansionMap
                         ) -> BranchDecomposition:
    """Decomposition for the expansion: each leaf grows a block caterpillar.

    The old leaf vertex becomes the head of a spine carrying the t block
    labels, so every edge of the old tree now displays S_X for its old
    displayed set X, and block-internal edges display subsets of one
    block.  The width therefore scales as t*(w-1)+1, which callers assert
    via decomposition_width.
    """
    base = emap.base_ground
    adj, labeled = D.normalized(base)
    if emap.t == 1:
        return D
    if base.n == 1:
        return caterpillar_decomposition(emap.blocks[base.labels[0]])
    prefix = "x"
    while any(v.startswith(prefix) for v in adj):
        prefix += "x"
    tree = _Tree(prefix)
    tree.vertices.extend(adj)
    tree.edges.extend((p, v) for v, p in _walk(adj)[1:])
    for lab in base.labels:
        tree.caterpillar(emap.blocks[lab], head=labeled[lab])
    return tree.build()


# -- tangles -----------------------------------------------------------------

@dataclass(frozen=True)
class RankBelow:
    """Descriptor for the family {X : r(X) < c}."""

    c: int

    def describe(self) -> str:
        return "rank-lt:%d" % self.c


@dataclass(frozen=True)
class Tangle:
    """A claimed tangle: an order plus members (explicit or described)."""

    order: int
    members: Union[Tuple[int, ...], RankBelow]

    def describe(self) -> str:
        if isinstance(self.members, RankBelow):
            return self.members.describe()
        return "explicit:%d sets" % len(self.members)


def rank_bounded_family(M: Matroid, c: int) -> RankBelow:
    """The family {X : r(X) < c} as a lazy descriptor."""
    if not 0 < c <= M.rank_total + 1:
        raise ValueError("rank bound %d is outside 1..r(M)+1" % c)
    return RankBelow(c)


def _member_table(space: OrbitSpace, members, ranks: np.ndarray
                  ) -> np.ndarray:
    if isinstance(members, RankBelow):
        return ranks < members.c
    memb = np.zeros(space.count, dtype=bool)
    for x in members:
        if x < 0 or x >= space.count:
            raise ValueError("tangle member outside the ground set")
        memb[x] = True
    return memb


def verify_tangle(M: Matroid, tangle: Tangle, threads: int = 1
                  ) -> Tuple[bool, Optional[dict]]:
    """Check the four tangle axioms; (ok, witness-of-violation).

    (T1) every member X has lambda(X) < k-1;
    (T2) every X with lambda(X) < k-1 has X or E-X among the members;
    (T3) no three members cover E -- reduced to pairs of inclusion-maximal
         members plus a superset-membership table;
    (T4) no member is the complement of a single element.

    A rank-below family is a union of clonal orbits, so it is checked on
    count-vector states; explicit member masks are checked on the
    singleton partition, where states are masks.  T1/T2 witnesses are
    the first elements of each class for the first violating state.

    T3 starts from a bound big on the size of a member, read off the
    lattice for {X : r(X) < c}: if Z is a cyclic flat attaining the rank
    formula for X, then r(Z) <= r(X) < c and |X| <= |Z| + r(X) - r(Z),
    so big is the largest |Z| + c - 1 - r(Z) over the cyclic flats Z with
    r(Z) < c.  For explicit members it is the largest member.  When
    3 * big < n no three members cover E and T3 holds with no table
    pass; otherwise only maximal members of at least n - 2 * big
    elements enter the pair sweep, since each side of a violating pair
    needs that many (the rest lies in a member).
    """
    n = M.ground.n
    E = M.ground.full
    k = tangle.order
    below = isinstance(tangle.members, RankBelow)
    space = clonal_space(M)
    if not (below or space.radix2):
        space = OrbitSpace(M, [1 << i for i in range(n)])
    check_states(space.count, "tangle verification")
    if k < 1:
        return False, {"axiom": "order", "detail": "order must be >= 1"}
    ranks = space.ranks()
    lam = space.lams()
    memb = _member_table(space, tangle.members, ranks)

    def labels(mask: int):
        return sorted(M.ground.labels_of(mask))

    viol = memb & (lam >= k - 1)
    if viol.any():
        x = int(np.nonzero(viol)[0][0])
        return False, {"axiom": "T1", "set": labels(space.take(x, E)),
                       "lambda": int(lam[x]), "order": k}
    viol = (lam < k - 1) & ~(memb | memb[::-1])
    if viol.any():
        x = int(np.nonzero(viol)[0][0])
        return False, {"axiom": "T2", "set": labels(space.take(x, E)),
                       "lambda": int(lam[x]), "order": k}
    if below:
        c = tangle.members.c
        big = max((c - 1 + popcount(a) - r for a, r in M.zee if r < c),
                  default=0)
    else:
        big = max((popcount(int(x)) for x in tangle.members), default=0)
    pair = None
    if 3 * big >= n:
        pair = _t3_pair(space, memb, below, n - 2 * big)
    if pair is not None:
        # X and Y overlap as little as their counts allow, and a member
        # contains the rest.  A rank-below family is closed under
        # subsets, so the rest is itself a member; explicit members are
        # masks, and Z is the first one containing it.
        X = space.take(pair[0], E)
        Y = space.take(pair[1], E, last=True)
        Z = E & ~(X | Y)
        if not below:
            above = (np.arange(space.count) & Z) == Z
            Z = int(np.nonzero(memb & above)[0][0])
        return False, {"axiom": "T3",
                       "sets": [labels(X), labels(Y), labels(Z)]}
    full = space.count - 1
    for els, st in zip(space.members, space.strides):
        if memb[full - st]:
            return False, {"axiom": "T4", "element": M.ground.labels[els[0]]}
    if k >= 3:
        missing = (ranks < k - 1) & ~memb
        if missing.any():
            raise MatroidError(
                "internal check failed: a verified tangle of order >= 3 "
                "must contain every set of rank below order-1")
    return True, None


def _t3_pair(space: OrbitSpace, memb: np.ndarray, below: bool, least: int
             ) -> Optional[Tuple[int, int]]:
    """The first pair (x, y) of inclusion-maximal member states of at
    least `least` elements, in row-major order, whose remainder
    max(0, s - x - y) lies in a member; None when there is none.

    The dense number of a state is outer*(s_c+1)*st + x_c*st + inner, so
    axis 1 of each reshaped view is the count x_c.  A rank-below family
    is closed under subsets, so its superset table is the member table
    itself.
    """
    mx = memb.copy()
    sup = memb if below else memb.copy()
    for s, st in zip(space.sizes, space.strides):
        member, top, up = (a.reshape(-1, s + 1, st) for a in (memb, mx, sup))
        top[:, :-1] &= ~member[:, 1:]
        if not below:
            for d in range(s - 1, -1, -1):
                up[:, d] |= up[:, d + 1]
    # a side of fewer elements is in no violating pair, so dropping it
    # keeps the order of the pairs that are left.  One gather per block
    # of rows X of the (X, Y) table; its first hit in row-major order is
    # the first violating pair.  The table is symmetric, so that hit has
    # X at or before Y, and a block of rows needs only the columns from
    # its first row on.
    maximal = np.nonzero(mx)[0]
    maximal = maximal[np.bitwise_count(space.sets(maximal)) >= least]
    step = max(1, _CHUNK // max(1, len(maximal)))
    for start in range(0, len(maximal), step):
        rows = maximal[start:start + step]
        cols = maximal[start:]
        bad = sup[space.remainders(rows[:, None], cols)]
        if bad.any():
            row, col = divmod(int(np.argmax(bad)), len(cols))
            return int(rows[row]), int(cols[col])
    return None


# -- certificates ------------------------------------------------------------

@dataclass(frozen=True)
class WidthCertificate:
    """Two-sided branch-width certificate.

    lower_order <= bw(M) <= upper_width always holds once both halves are
    verified (a tangle of order k forces bw >= k; a decomposition of width
    w shows bw <= w); exact is true when the bounds meet.
    """

    upper_width: int
    lower_order: int
    decomposition: BranchDecomposition
    tangle: Tangle

    @property
    def exact(self) -> bool:
        return self.upper_width == self.lower_order

    @property
    def value(self) -> Optional[int]:
        return self.upper_width if self.exact else None

    def to_json_dict(self) -> dict:
        return {
            "exact": self.exact,
            "value": self.value,
            "bounds": [self.lower_order, self.upper_width],
            "upper": {"width": self.upper_width,
                      "decomposition": self.decomposition.to_json_dict()},
            "lower": {"order": self.lower_order,
                      "tangle": self.tangle.describe()},
        }


def branch_width_certified(M: Matroid, upper: BranchDecomposition,
                           lower: Tangle, threads: int = 1
                           ) -> WidthCertificate:
    """Verify both halves and combine them into a WidthCertificate."""
    width = decomposition_width(M, upper)
    ok, witness = verify_tangle(M, lower)
    if not ok:
        raise InvalidTangle("tangle verification failed: %r" % (witness,))
    if lower.order > width:
        raise MatroidError(
            "internal check failed: verified tangle order %d exceeds a "
            "verified decomposition width %d" % (lower.order, width))
    return WidthCertificate(upper_width=width, lower_order=lower.order,
                            decomposition=upper, tangle=lower)


# -- three-flat covers -------------------------------------------------------

def three_flats_cover(M: Matroid, slack: int
                      ) -> Tuple[bool, Optional[list]]:
    """Do three proper flats cover all but at most `slack` elements?"""
    w = flats_cover(M, 3, slack)
    return w is not None, w


def three_flats_cover_plus_two(M: Matroid) -> Tuple[bool, Optional[list]]:
    return three_flats_cover(M, 2)
