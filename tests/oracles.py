"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written along different lines than the
package: ranks come from a largest-independent-subset dynamic program,
branch-width from exhaustive cubic-tree enumeration, Tutte values from a
direct subset sum, lattice verdicts from a pair-by-pair walk of the
inclusion order on Python bitsets and, separately, from the rank formula
element by element, configuration isomorphism by trying bijections in
index order.  Slow, simple, and only for small ground sets.  The graph
families at the end are inputs for that last oracle.
"""

from itertools import combinations, permutations

from cycflats import Matroid, popcount, validate_axioms


def rank_table_oracle(M: Matroid):
    """Ranks via independence: X is independent iff |X & A| <= r(A) for
    every cyclic flat A; the rank of X is its largest independent subset."""
    n = M.ground.n
    size = 1 << n
    ind = [True] * size
    for a, r in M.zee:
        for x in range(size):
            if popcount(x & a) > r:
                ind[x] = False
    rank = [0] * size
    for x in range(1, size):
        if ind[x]:
            rank[x] = popcount(x)
        else:
            best = 0
            y = x
            while y:
                b = y & -y
                y ^= b
                v = rank[x ^ b]
                if v > best:
                    best = v
            rank[x] = best
    return rank


def lambda_oracle(M: Matroid):
    rank = rank_table_oracle(M)
    full = M.ground.full
    total = rank[full]
    return [rank[x] + rank[full ^ x] - total for x in range(1 << M.ground.n)]


def zee_oracle(rank, n: int):
    """The (mask, rank) pairs of the cyclic flats read off a full rank
    table: X is a flat when every added element raises the rank and
    cyclic when no removed element lowers it."""
    bits = [1 << i for i in range(n)]
    out = []
    for x in range(1 << n):
        flat = all(rank[x | b] > rank[x] for b in bits if not x & b)
        cyclic = all(rank[x ^ b] == rank[x] for b in bits if x & b)
        if flat and cyclic:
            out.append((x, rank[x]))
    return out


def minor_oracle(M: Matroid, delete: int, contract: int):
    """The cyclic flats of M / contract \\ delete as a set of
    (frozenset of labels, rank), from the minor's rank table
    r'(Y) = r(Y | contract) - r(contract) on the surviving elements."""
    rank = rank_table_oracle(M)
    keep = [i for i in range(M.ground.n)
            if not (delete | contract) >> i & 1]
    table = []
    for y in range(1 << len(keep)):
        big = sum(1 << keep[j] for j in range(len(keep)) if y >> j & 1)
        table.append(rank[big | contract] - rank[contract])
    labels = [M.ground.labels[i] for i in keep]
    return {(frozenset(labels[j] for j in range(len(keep)) if a >> j & 1),
             r) for a, r in zee_oracle(table, len(keep))}


def components_oracle(M: Matroid):
    """Connected components as masks, by lowest element: e and f share a
    component when every separator (lambda = 0) holding e holds f."""
    lam = lambda_oracle(M)
    n = M.ground.n
    seps = [x for x in range(1 << n) if lam[x] == 0]
    out = []
    for e in range(n):
        if any(c >> e & 1 for c in out):
            continue
        out.append(sum(1 << f for f in range(n)
                       if all(x >> f & 1 for x in seps if x >> e & 1)))
    return out


def connected_flats_oracle(M: Matroid, proper: bool = True):
    """The nonempty flats X (X != E when proper) with no split into
    nonempty Y and X - Y with r(Y) + r(X - Y) = r(X), as a set of
    masks."""
    rank = rank_table_oracle(M)
    n = M.ground.n
    full = (1 << n) - 1
    out = set()
    for x in range(1, full + 1):
        if proper and x == full:
            continue
        if any(rank[x | 1 << i] == rank[x] for i in range(n)
               if not x >> i & 1):
            continue
        y = (x - 1) & x
        while y and rank[y] + rank[x ^ y] != rank[x]:
            y = (y - 1) & x
        if not y:
            out.add(x)
    return out


def minor_components_oracle(M: Matroid, delete: int, contract: int):
    """Components of M / contract \\ delete as masks over M's indices, by
    lowest element: components_oracle on the matroid of minor_oracle's
    cyclic flats."""
    keep = [i for i in range(M.ground.n)
            if not (delete | contract) >> i & 1]
    if not keep:
        return []
    N = validate_axioms([(set(s), r) for s, r in
                         minor_oracle(M, delete, contract)],
                        [M.ground.labels[i] for i in keep])
    return [sum(1 << keep[j] for j in range(len(keep)) if c >> j & 1)
            for c in components_oracle(N)]


def tutte_eval_oracle(M: Matroid, x: int, y: int) -> int:
    """T(M; x, y) as the direct corank-nullity subset sum."""
    rank = rank_table_oracle(M)
    n = M.ground.n
    total = rank[(1 << n) - 1]
    acc = 0
    for a in range(1 << n):
        acc += (x - 1) ** (total - rank[a]) * (y - 1) ** (popcount(a)
                                                          - rank[a])
    return acc


def basis_count_oracle(M: Matroid) -> int:
    rank = rank_table_oracle(M)
    n = M.ground.n
    total = rank[(1 << n) - 1]
    count = 0
    for labels in combinations(range(n), total):
        mask = 0
        for i in labels:
            mask |= 1 << i
        if rank[mask] == total:
            count += 1
    return count


def tau_oracle(M: Matroid):
    """Tutte connectivity by scanning all bipartitions; None if infinite."""
    lam = lambda_oracle(M)
    n = M.ground.n
    best = None
    for x in range(1 << n):
        bound = min(popcount(x), n - popcount(x))
        if lam[x] < bound and (best is None or lam[x] + 1 < best):
            best = lam[x] + 1
    return best


def kappa_oracle(M: Matroid) -> int:
    rank = rank_table_oracle(M)
    lam = lambda_oracle(M)
    n = M.ground.n
    full = (1 << n) - 1
    best = None
    for x in range(1 << n):
        bound = min(rank[x], rank[full ^ x])
        if lam[x] < bound and (best is None or lam[x] + 1 < best):
            best = lam[x] + 1
    return rank[full] if best is None else best


def cubic_trees(n: int):
    """All cubic trees with leaves 0..n-1, as edge lists.

    Leaf k is inserted into every edge of every tree on leaves 0..k-1
    (subdivide and hang), so exactly (2n-5)!! trees come out for n >= 3.
    Internal vertices are numbered from n upward.
    """
    if n <= 1:
        yield []
        return
    if n == 2:
        yield [(0, 1)]
        return

    def rec(k, edges, nxt):
        if k == n:
            yield edges
            return
        for i in range(len(edges)):
            u, v = edges[i]
            w = nxt
            grown = edges[:i] + edges[i + 1:] + [(u, w), (w, v), (w, k)]
            yield from rec(k + 1, grown, nxt + 1)

    yield from rec(2, [(0, 1)], n)


def _displayed_masks(edges, n):
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    out = []
    for u, v in edges:
        mask = 0
        stack = [u]
        seen = {u, v}
        while stack:
            w = stack.pop()
            if w < n:
                mask |= 1 << w
            for z in adj[w]:
                if z not in seen:
                    seen.add(z)
                    stack.append(z)
        out.append(mask)
    return out


def bw_oracle(M: Matroid) -> int:
    """Branch-width by trying every cubic tree (n <= 6 or so)."""
    n = M.ground.n
    if n == 0:
        return 0
    if n == 1:
        return 1
    lam = lambda_oracle(M)
    best = None
    for edges in cubic_trees(n):
        width = 0
        for mask in _displayed_masks(edges, n):
            w = lam[mask] + 1
            if w > width:
                width = w
        if best is None or width < best:
            best = width
    return best


def union_rank_oracle(members, x: int) -> int:
    """Matroid-union rank via the minimum formula over subsets of x."""
    tables = [rank_table_oracle(m) for m in members]
    best = None
    y = x
    while True:
        v = sum(t[y] for t in tables) + popcount(x ^ y)
        if best is None or v < best:
            best = v
        if y == 0:
            break
        y = (y - 1) & x
    return best


def bw_dp_oracle(M: Matroid) -> int:
    """Branch-width by the plain subset recursion over every bipartition
    (n <= 14 or so): g(X) = max(lambda(X)+1, min max(g(A), g(X-A)))."""
    n = M.ground.n
    if n <= 1:
        return n
    lam = lambda_oracle(M)
    g = [0] * (1 << n)
    for x in range(1, 1 << n):
        if popcount(x) == 1:
            g[x] = lam[x] + 1
            continue
        best = None
        a = (x - 1) & x
        while a:
            v = max(g[a], g[x ^ a])
            if best is None or v < best:
                best = v
            a = (a - 1) & x
        g[x] = max(best, lam[x] + 1)
    return g[(1 << n) - 1]


def rank_below_tangle_oracle(M: Matroid, c: int, k: int) -> bool:
    """Do the sets of rank below c form a tangle of order k?

    The four axioms are checked literally on the subset tables, except
    that "some member contains Z" is read as r(Z) < c, which is what it
    means for a family closed under taking subsets.
    """
    import numpy as np
    n = M.ground.n
    full = (1 << n) - 1
    rank = np.array(rank_table_oracle(M))
    lam = np.array(lambda_oracle(M))
    memb = rank < c
    if (memb & (lam >= k - 1)).any():                        # (T1)
        return False
    if ((lam < k - 1) & ~memb & ~memb[::-1]).any():          # (T2)
        return False
    if any(memb[full ^ (1 << i)] for i in range(n)):         # (T4)
        return False
    members = np.nonzero(memb)[0]
    for a in members:                                         # (T3)
        if memb[full & ~(a | members)].any():
            return False
    return True


def family_checks(flats, labels):
    """The checks of validate_axioms before its pair sweep.

    flats is a list of (mask, rank) pairs without repeated masks.  Returns
    the members sorted by size and then labels, a function naming a mask
    by its labels, and the first violation of the least and greatest
    members, (Z1) or (Z2) as (name of the violation class, witness), or
    None when all of them hold.
    """
    n = len(labels)
    full = (1 << n) - 1

    def size(x):
        return bin(x).count("1")

    def names(x):
        return tuple(labels[i] for i in range(n) if x >> i & 1)

    recs = sorted(flats, key=lambda ar: (size(ar[0]), names(ar[0])))
    byset = dict(recs)
    meet_all, join_all = full, 0
    for a, _ in recs:
        meet_all &= a
        join_all |= a
    if meet_all not in byset:
        return recs, names, ("Z0Violation", names(meet_all))
    if join_all not in byset:
        return recs, names, ("Z0Violation", names(join_all))
    if byset[meet_all] != 0:
        return recs, names, ("Z1Violation", names(meet_all))
    for x, rx in recs:
        for y, ry in recs:
            if x != y and x & ~y == 0 and not 0 < ry - rx < size(y & ~x):
                return recs, names, ("Z2Violation", (names(x), names(y)))
    return recs, names, None


def order_violations(recs, names):
    """The literal order sweep of a family that passes family_checks,
    given the sorted members recs and the naming function it returns.

    The upper and lower bounds of each member are Python bitsets over the
    member numbers.  For each incomparable pair X, Y, in the order of the
    pairs (i, j) with i < j, yields at most one violation: ("no join",
    (X, Y, J, V)) when an upper bound V misses the first upper bound J;
    ("no meet", (X, Y, K, W)) when a lower bound W is not inside the last
    lower bound K; else ("Z3Violation", (X, Y)) when r(J) + r(K) +
    |X & Y - K| exceeds r(X) + r(Y).  Uses no rank formula.
    """
    masks = [a for a, _ in recs]
    up = [sum(1 << q for q, z in enumerate(masks) if x & ~z == 0)
          for x in masks]
    down = [sum(1 << q for q, z in enumerate(masks) if z & ~x == 0)
            for x in masks]

    def first(bits):
        return (bits & -bits).bit_length() - 1

    for i, (x, rx) in enumerate(recs):
        for j in range(i + 1, len(recs)):
            y, ry = recs[j]
            if x & ~y == 0:
                continue
            upper = up[i] & up[j]
            jn = first(upper)
            stray = upper & ~up[jn]
            if stray:
                yield "no join", (names(x), names(y), names(masks[jn]),
                                  names(masks[first(stray)]))
                continue
            lower = down[i] & down[j]
            mt = lower.bit_length() - 1
            stray = lower & ~down[mt]
            if stray:
                yield "no meet", (names(x), names(y), names(masks[mt]),
                                  names(masks[first(stray)]))
                continue
            extra = bin(x & y & ~masks[mt]).count("1")
            if recs[jn][1] + recs[mt][1] + extra > rx + ry:
                yield "Z3Violation", (names(x), names(y))


def validate_oracle(flats, labels):
    """The verdict of validate_axioms from the literal order sweep.

    Runs family_checks, then takes the first violation of
    order_violations: a pair without a join is a Z0Violation with witness
    (X, Y, J, V).  A pair without a meet is returned as "no meet", which
    the library never raises: by the lemma in the core module docstring
    an earlier pair then lacks a join.  Returns None when the family is
    accepted, else (name of the violation class, witness as labels).
    """
    recs, names, verdict = family_checks(flats, labels)
    if verdict is not None:
        return verdict
    for kind, witness in order_violations(recs, names):
        return ("Z0Violation" if kind == "no join" else kind), witness
    return None


def formula_oracle(flats, labels) -> bool:
    """Whether the family is accepted, from the rank formula alone.

    After family_checks, computes the join of each incomparable pair X, Y
    by testing r(U + e) = r(U) for every e outside U = X | Y, the meet by
    testing r(S - e) < r(S) for every e in S = X & Y, and requires both
    to lie in the family, the join to lie in every member containing
    X | Y, every member inside X & Y to lie in the meet, and (Z3) with
    them.  Shares no step with the order sweep; by the theorem of Bonin
    and de Mier the verdicts agree.
    """
    n = len(labels)
    recs, _, verdict = family_checks(flats, labels)
    if verdict is not None:
        return False
    byset = dict(recs)
    masks = [a for a, _ in recs]

    def size(x):
        return bin(x).count("1")

    def crank(u):
        return min(r + size(u & ~a) for a, r in recs)

    def rule_join(u):
        ru = crank(u)
        return u | sum(1 << i for i in range(n)
                       if not u >> i & 1 and crank(u | 1 << i) == ru)

    def rule_meet(s):
        rs = crank(s)
        return s & ~sum(1 << i for i in range(n)
                        if s >> i & 1 and crank(s & ~(1 << i)) < rs)

    for i, (x, rx) in enumerate(recs):
        for y, ry in recs[i + 1:]:
            if x & ~y == 0 or y & ~x == 0:
                continue
            jn = rule_join(x | y)
            mt = rule_meet(x & y)
            if jn not in byset or mt not in byset:
                return False
            for z in masks:
                if x | y | z == z and jn | z != z:
                    return False
                if z & x & y == z and z & mt != z:
                    return False
            if byset[jn] + byset[mt] + size(x & y & ~mt) > rx + ry:
                return False
    return True


def positroid_constraints_oracle(M: Matroid):
    """(F, components of M/F with >= 2 elements) for every connected flat
    F != E of a loopless M with >= 2 elements, flats by size and then
    labels, components by lowest element."""
    labels = M.ground.labels
    out = []
    for f in sorted(connected_flats_oracle(M), key=lambda x: (
            popcount(x), [labels[i] for i in range(M.ground.n)
                          if x >> i & 1])):
        if popcount(f) < 2:
            continue
        comps = [c for c in minor_components_oracle(M, 0, f)
                 if popcount(c) >= 2]
        if comps:
            out.append((f, comps))
    return out


def positroid_order_oracle(M: Matroid, order, constraints):
    """(verdict, witness) of is_positroid_order, from the definition: each
    component K must lie in one maximal cyclic interval of positions that
    holds no element of F; the witness is the first (F, K) that does
    not."""
    n = len(order)
    at = [M.ground.index[lab] for lab in order]
    for f, comps in constraints:
        def arc(p):
            # grow the F-free interval around position p both ways
            run = {p}
            for step in (1, -1):
                q = (p + step) % n
                while not f >> at[q] & 1 and q not in run:
                    run.add(q)
                    q = (q + step) % n
            return frozenset(run)
        for k in comps:
            if len({arc(p) for p in range(n) if k >> at[p] & 1}) > 1:
                return False, {"flat": sorted(M.ground.labels_of(f)),
                               "component": sorted(M.ground.labels_of(k))}
    return True, None


def positroid_search_oracle(M: Matroid):
    """(order, classes checked) of positroid_search: the first order, in
    lexicographic order of the elements after the first, that passes,
    counting one order of each reflected pair (first of the rest below
    its last)."""
    constraints = positroid_constraints_oracle(M)
    labels = list(M.ground.labels)
    checked = 0
    for rest in permutations(range(1, M.ground.n)):
        if rest and rest[0] > rest[-1]:
            continue
        checked += 1
        order = [labels[0]] + [labels[i] for i in rest]
        if positroid_order_oracle(M, order, constraints)[0]:
            return order, checked
    return None, checked


def config_isomorphic_oracle(C1, C2) -> bool:
    """Is there a bijection of the nodes that keeps every (size, rank)
    decoration and carries the strict order of C1 onto that of C2?
    Decoration-preserving bijections are tried node by node in index
    order, a partial map dropped as soon as two of its nodes break the
    order."""
    n = len(C1.deco)
    if n != len(C2.deco):
        return False
    same = [[j for j in range(n) if C2.deco[j] == d] for d in C1.deco]
    up1 = [{j for a, j in C1.leq if a == i} for i in range(n)]
    up2 = [{j for a, j in C2.leq if a == i} for i in range(n)]
    image = []

    def extend():
        i = len(image)
        if i == n:
            return True
        for j in same[i]:
            if j in image:
                continue
            if all((a in up1[i]) == (b in up2[j])
                   and (i in up1[a]) == (j in up2[b])
                   for a, b in enumerate(image)):
                image.append(j)
                if extend():
                    return True
                image.pop()
        return False

    return extend()


def graph_family(k: int, edges) -> dict:
    """The matroid JSON of k disjoint 3-point lines l_i of rank 2, the
    plane l_i | l_j of rank 3 for each edge ij of a simple graph on
    range(k), and the ground set of rank 4.  It is valid for every graph,
    and two graphs give isomorphic configurations exactly when they are
    isomorphic."""
    lines = [[str(3 * i + d) for d in range(3)] for i in range(k)]
    ground = [e for line in lines for e in line]
    return {"elements": ground, "cyclic_flats": (
        [{"set": [], "rank": 0}]
        + [{"set": line, "rank": 2} for line in lines]
        + [{"set": lines[i] + lines[j], "rank": 3} for i, j in edges]
        + [{"set": ground, "rank": 4}])}


def cycle_pair(k2: int):
    """graph_family of one cycle of length k2 and of two cycles of length
    k2 / 2: every node has the same decoration and numbers of nodes below
    and above it in both, and the two are not isomorphic."""
    k = k2 // 2
    one = [(i, (i + 1) % k2) for i in range(k2)]
    two = [(s + i, s + (i + 1) % k) for s in (0, k) for i in range(k)]
    return graph_family(k2, one), graph_family(k2, two)
