"""Reference values that the benchmark checks the library against.

Nothing here calls cycflats.  Matroids are plain data: a label list and a
list of (mask, rank) cyclic flats.  Expected values come from

  * closed forms of the generated families (sparse paving matroids,
    t-expansions, duals, transversal matroids built by matching);
  * count-vector evaluation of an expansion M^t: every block of t clones
    enters a rank only through how many of its elements a set holds, so
    tau, kappa, the Tutte polynomial and rank-tangle axioms of M^t are
    computed over the (t+1)^n count vectors instead of the 2^(nt) subsets
    (with t = 1 this is a plain subset scan of a small matroid);
  * a cyclic-interval positroid search written from the definition.

tests/oracles.py (rank, lambda, tau, kappa, Tutte values and branch-width
by tree enumeration) is used beside these by the workloads.
"""

from itertools import combinations, combinations_with_replacement
from itertools import permutations, product
from math import comb


def popcount(x):
    return bin(x).count("1")


def bits(x):
    out = []
    i = 0
    while x:
        if x & 1:
            out.append(i)
        x >>= 1
        i += 1
    return out


def mask_of(labels, elements):
    index = {lab: i for i, lab in enumerate(labels)}
    m = 0
    for e in elements:
        m |= 1 << index[e]
    return m


def flat_rank(flats, x):
    """r(X) = min over cyclic flats A of r(A) + |X - A|."""
    return min(r + popcount(x & ~a) for a, r in flats)


def label_flats(labels, flats):
    """Cyclic flats as a set of (frozenset of labels, rank)."""
    return {(frozenset(labels[i] for i in bits(a)), r) for a, r in flats}


def cyclic_flats_of_table(n, rank):
    """(mask, rank) of every set that is both a flat and cyclic."""
    out = []
    for x in range(1 << n):
        rx = rank[x]
        ok = True
        for i in range(n):
            b = 1 << i
            if x & b:
                if rank[x ^ b] != rx:
                    ok = False
                    break
            elif rank[x | b] == rx:
                ok = False
                break
        if ok:
            out.append((x, rx))
    return out


def dual_flats(n, flats):
    full = (1 << n) - 1
    total = flat_rank(flats, full)
    return [(full & ~a, (n - popcount(a)) + r - total) for a, r in flats]


def clonal_classes(n, flats):
    """Elements lying in exactly the same cyclic flats, as masks."""
    sig = {}
    for i in range(n):
        key = tuple((a >> i) & 1 for a, _ in flats)
        sig[key] = sig.get(key, 0) | (1 << i)
    return list(sig.values())


# -- transversal matroids -----------------------------------------------------

def transversal_rank(sets, x):
    """Largest matching of the elements of x into the sets (Kuhn)."""
    owner = [-1] * len(sets)

    def augment(e, seen):
        for j, a in enumerate(sets):
            if a >> e & 1 and not seen[j]:
                seen[j] = True
                if owner[j] < 0 or augment(owner[j], seen):
                    owner[j] = e
                    return True
        return False

    return sum(1 for e in bits(x) if augment(e, [False] * len(sets)))


def transversal_flats(n, sets):
    """Cyclic flats from the rank table by Ore's deficiency formula:
    r(X) = min over subfamilies J of (#sets - |J|) + |X meet union(J)|."""
    k = len(sets)
    cuts = []
    for j in range(1 << k):
        union = 0
        for i in bits(j):
            union |= sets[i]
        cuts.append((k - popcount(j), union))
    size = [popcount(x) for x in range(1 << n)]
    rank = [min(d + size[x & u] for d, u in cuts) for x in range(1 << n)]
    return cyclic_flats_of_table(n, rank)


# -- sparse paving matroids ---------------------------------------------------

def sparse_paving(rng, n, r, k):
    """k circuit-hyperplanes (r-sets meeting pairwise in <= r-2 elements),
    drawn greedily in seeded order, redrawn until k fit and no two
    elements are clones."""
    cands = list(combinations(range(n), r))
    for _ in range(100):
        rng.shuffle(cands)
        chosen = []
        for c in cands:
            m = 0
            for i in c:
                m |= 1 << i
            if all(popcount(m & h) <= r - 2 for h in chosen):
                chosen.append(m)
                if len(chosen) == k:
                    break
        if len(chosen) == k and \
                len(clonal_classes(n, paving_flats(n, r, chosen))) == n:
            return chosen
    raise ValueError("no %d clone-free circuit-hyperplanes for n=%d, r=%d"
                     % (k, n, r))


def paving_flats(n, r, chs):
    return [(0, 0), ((1 << n) - 1, r)] + [(h, r - 1) for h in chs]


def paving_rank(r, chset, x):
    k = popcount(x)
    return r - 1 if k == r and x in chset else min(k, r)


def paving_connectivity(n, r, chs, vertical):
    """tau (vertical=False; None when infinite) or kappa of a sparse paving
    matroid, from set sizes and circuit-hyperplane incidence alone."""
    full = (1 << n) - 1
    chset = set(chs)
    K = len(chs)
    both = sum(1 for h in chs if full & ~h in chset)
    best = None
    for k in range(n + 1):
        special = (K if k == r else 0) + (K if n - k == r else 0)
        if k == r and n - k == r:
            special -= both
        kinds = []
        if comb(n, k) > special:
            kinds.append((0, 0))
        if k == r and both:
            kinds.append((1, 1))
        if k == r and K > both:
            kinds.append((1, 0))
        if n - k == r and K > both:
            kinds.append((0, 1))
        for cx, cy in kinds:
            rx = min(k, r) - cx
            ry = min(n - k, r) - cy
            lam = rx + ry - r
            bound = min(rx, ry) if vertical else min(k, n - k)
            if lam < bound and (best is None or lam + 1 < best):
                best = lam + 1
    if vertical and best is None:
        return r
    return best


def poly_from_hist(hist):
    """Tutte coefficients {(i, j): c} from a {(corank, nullity): count}."""
    coeffs = {}
    for (a, b), cnt in hist.items():
        for i in range(a + 1):
            ci = comb(a, i) * (-1) ** (a - i)
            for j in range(b + 1):
                cj = comb(b, j) * (-1) ** (b - j)
                coeffs[(i, j)] = coeffs.get((i, j), 0) + cnt * ci * cj
    return {k: v for k, v in coeffs.items() if v}


def paving_tutte(n, r, K):
    """T(U_{r,n}) + K (xy - x - y): each circuit-hyperplane, relaxed to a
    basis, moves exactly one set from (corank 1, nullity 1) to (0, 0)."""
    hist = {}
    for k in range(n + 1):
        rk = min(k, r)
        key = (r - rk, k - rk)
        hist[key] = hist.get(key, 0) + comb(n, k)
    coeffs = poly_from_hist(hist)
    for key, d in (((1, 1), K), ((1, 0), -K), ((0, 1), -K)):
        coeffs[key] = coeffs.get(key, 0) + d
    return {k: v for k, v in coeffs.items() if v}


def paving_is_proper_flat(r, chs, x):
    k = popcount(x)
    if k <= r - 2:
        return True
    if k == r - 1:
        return not any(x & ~h == 0 for h in chs)
    return k == r and x in chs


# -- expansions ---------------------------------------------------------------

def blowup_labels(labels, t):
    """Expanded labels in block order: e, e#1, ..., e#(t-1) (base labels
    carry no '#', so no copy label collides)."""
    return [lab if j == 0 else "%s#%d" % (lab, j)
            for lab in labels for j in range(t)]


def blowup_flats(n, flats, t):
    """Cyclic flats of M^t as masks over blowup_labels(labels, t)."""
    out = []
    for a, r in flats:
        m = 0
        for i in bits(a):
            m |= ((1 << t) - 1) << (i * t)
        out.append((m, t * r))
    return out


def deflated(labels, flats, t):
    """What deflate(M^t, t) returns for M^t given by labels and flats: it
    keeps the least |class|/t labels (in string order) of each clonal
    class, and each cyclic flat keeps its kept labels and rank / t.
    Returns (kept labels in ground order, flats over them)."""
    reps = set()
    for cls in clonal_classes(len(labels), flats):
        labs = sorted(labels[i] for i in bits(cls))
        reps.update(labs[:len(labs) // t])
    keep = [lab for lab in labels if lab in reps]
    idx = {lab: i for i, lab in enumerate(keep)}
    return keep, [(sum(1 << idx[labels[i]] for i in bits(a)
                       if labels[i] in reps), r // t) for a, r in flats]


class CountVectors:
    """M^t evaluated over per-block count vectors.

    A count vector c gives, for each base element, how many of its t
    copies a set holds; its rank is min_A t r(A) + sum_{e not in A} c_e and
    it stands for prod_e C(t, c_e) subsets.
    """

    def __init__(self, n, flats, t):
        self.n, self.t = n, t
        self.states = list(product(range(t + 1), repeat=n))
        outside = [(t * r, [i for i in range(n) if not a >> i & 1])
                   for a, r in flats]
        self.rank = {c: min(rr + sum(c[i] for i in out) for rr, out in outside)
                     for c in self.states}
        self.total = self.rank[(t,) * n]

    def comp(self, c):
        return tuple(self.t - x for x in c)

    def lam(self, c):
        return self.rank[c] + self.rank[self.comp(c)] - self.total

    def connectivity(self, vertical):
        size_all = self.n * self.t
        best = None
        for c in self.states:
            lam = self.lam(c)
            if vertical:
                bound = min(self.rank[c], self.rank[self.comp(c)])
            else:
                s = sum(c)
                bound = min(s, size_all - s)
            if lam < bound and (best is None or lam + 1 < best):
                best = lam + 1
        if vertical and best is None:
            return self.total
        return best

    def tutte(self):
        hist = {}
        for c in self.states:
            w = 1
            for x in c:
                w *= comb(self.t, x)
            rc = self.rank[c]
            key = (self.total - rc, sum(c) - rc)
            hist[key] = hist.get(key, 0) + w
        return poly_from_hist(hist)

    def rank_tangle_ok(self, order, c):
        """Do the sets of rank < c form a tangle of this order?"""
        t, n = self.t, self.n
        member = {s for s in self.states if self.rank[s] < c}
        for s in self.states:
            lam = self.lam(s)
            if s in member and lam >= order - 1:
                return False                                  # (T1)
            if lam < order - 1 and s not in member \
                    and self.comp(s) not in member:
                return False                                  # (T2)
        maximal = [s for s in member
                   if not any(s[i] < t and
                              s[:i] + (s[i] + 1,) + s[i + 1:] in member
                              for i in range(n))]
        for x, y in combinations_with_replacement(maximal, 2):
            z = tuple(max(0, t - a - b) for a, b in zip(x, y))
            if z in member:
                return False                                  # (T3)
        for i in range(n):
            s = (t,) * i + (t - 1,) + (t,) * (n - i - 1)
            if s in member:
                return False                                  # (T4)
        return True


# -- branch decompositions ----------------------------------------------------

def tree_width(edges, leaf_labels, labels, rank):
    """Width of a branch decomposition given as edge pairs and a label ->
    leaf map: max over edges of lambda(displayed set) + 1.  Raises
    ValueError if the leaves do not match the labels."""
    if sorted(leaf_labels) != sorted(labels) or \
            len(set(leaf_labels.values())) != len(labels):
        raise ValueError("leaf labels do not match the ground set")
    n = len(labels)
    if n <= 1:
        return n
    index = {lab: i for i, lab in enumerate(labels)}
    at = {}
    for lab, v in leaf_labels.items():
        at[v] = 1 << index[lab]
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    full = (1 << n) - 1
    total = rank(full)
    width = 0
    for u, v in edges:
        side, stack, seen = 0, [u], {u, v}
        while stack:
            w = stack.pop()
            side |= at.get(w, 0)
            for z in adj[w]:
                if z not in seen:
                    seen.add(z)
                    stack.append(z)
        width = max(width, rank(side) + rank(full & ~side) - total + 1)
    return width


def bw_dp(n, lam):
    """Branch-width by the subset recursion g(X) = max(lam(X)+1,
    min over splits max(g(A), g(X-A))), for n up to about 10."""
    if n <= 1:
        return n
    g = [0] * (1 << n)
    for x in range(1, 1 << n):
        if x & (x - 1) == 0:
            g[x] = lam[x] + 1
            continue
        low = x & -x
        rest = x ^ low
        best = n + 2
        s = rest
        while True:
            s = (s - 1) & rest
            a = low | s
            v = max(g[a], g[x ^ a])
            if v < best:
                best = v
            if s == 0:
                break
        g[x] = max(best, lam[x] + 1)
    return g[(1 << n) - 1]


def three_flat_cover(n, rank, slack):
    """Do three proper flats cover all but at most `slack` elements?"""
    full = (1 << n) - 1
    total = rank[full]
    hyps = [x for x in range(1 << n) if rank[x] == total - 1 and
            all(rank[x | (1 << i)] > rank[x] for i in range(n)
                if not x >> i & 1)]
    return any(popcount(full & ~(a | b | c)) <= slack
               for a, b, c in combinations_with_replacement(hyps, 3))


# -- positroid orders ---------------------------------------------------------

def positroid_constraints(n, rank):
    """(F, components of M/F with >= 2 elements) for each proper connected
    flat F with >= 2 elements, from a full rank table."""
    full = (1 << n) - 1
    total = rank[full]
    out = []
    for f in range(1, full):
        if popcount(f) < 2 or any(rank[f | (1 << i)] == rank[f]
                                  for i in range(n) if not f >> i & 1):
            continue
        low = f & -f
        rest = f ^ low
        connected = True
        s = rest
        while s:
            s = (s - 1) & rest
            a = low | s
            if a != f and rank[a] + rank[f ^ a] == rank[f]:
                connected = False
                break
        if not connected:
            continue
        others = full & ~f
        # separators Y of M/F: r(Y u F) + r(E - Y) = r(F) + r(E)
        seps = []
        y = others
        while y:
            if rank[y | f] + rank[full & ~y] == rank[f] + total:
                seps.append(y)
            y = (y - 1) & others
        comps, seen = [], 0
        for i in bits(others):
            if seen >> i & 1:
                continue
            comp = others
            for y in seps:
                if y >> i & 1:
                    comp &= y
            seen |= comp
            if popcount(comp) >= 2:
                comps.append(comp)
        if comps:
            out.append((f, comps))
    return out


def _fits(n, pos, f, comps):
    in_f = [False] * n
    for i in bits(f):
        in_f[pos[i]] = True
    # label each position by the F-free cyclic run it lies in
    start = next((p for p in range(n) if in_f[p]), None)
    if start is None:
        return True
    run = [-1] * n
    current = -1
    for step in range(1, n + 1):
        p = (start + step) % n
        if in_f[p]:
            current = -1
        else:
            if current < 0:
                current = p
            run[p] = current
    return all(len({run[pos[i]] for i in bits(c)}) == 1 for c in comps)


def positroid_search(n, rank):
    """First cyclic order (element 0 first, one of each reflected pair, in
    itertools.permutations order) passing every constraint, and the
    number of classes checked: (order as element indices or None, count)."""
    cons = positroid_constraints(n, rank)
    if n <= 2 or not cons:
        return list(range(n)), 1
    checked = 0
    for rest in permutations(range(1, n)):
        if rest[0] > rest[-1]:
            continue
        checked += 1
        pos = [0] * n
        for p, i in enumerate(rest):
            pos[i] = p + 1
        if all(_fits(n, pos, f, comps) for f, comps in cons):
            order = [0] * n
            for i in range(n):
                order[pos[i]] = i
            return order, checked
    return None, checked
