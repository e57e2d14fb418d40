"""Seeded generators for the extremal hypergraph constructions.

Every generator is a pure function of (n, k, seed).  Pair colours and triple
orientations come from :mod:`hyperq.hashing`, so the edge status of a tuple
depends only on the tuple and the seed; restricting a construction to the
first m vertices therefore reproduces the m-vertex construction.
"""

from __future__ import annotations

from typing import Iterable

from .core import (
    N4_CAP,
    PATTERN_K_CAP,
    Hypergraph3,
    Hypergraph4,
    _pair_base,
    check_construction,
)
from .hashing import (
    TAG_PAIR_COLOUR,
    TAG_RANDOM_TRIPLE,
    TAG_TOURNAMENT,
    TAG_TRIPLE_ORIENT,
    bernoulli,
    tuple_hash,
)

RED, BLUE, GREEN = 0, 1, 2


class PairColouring:
    """Deterministic seeded colouring of unordered vertex pairs.

    colour(u, v) hashes (seed, min, max) and reduces modulo the number of
    colours.  ``colour_mask(x, c)`` gives the vertices y with
    colour(x, y) == c as a bitmask; masks are built once at construction.
    """

    __slots__ = ("n", "num_colours", "seed", "_masks")

    def __init__(self, n: int, num_colours: int, seed: int):
        if num_colours < 1:
            raise ValueError("need at least one colour")
        self.n = n
        self.num_colours = num_colours
        self.seed = seed
        masks = [[0] * num_colours for _ in range(n)]
        for u in range(n):
            row = masks[u]
            for v in range(u + 1, n):
                c = tuple_hash(seed, TAG_PAIR_COLOUR, u, v) % num_colours
                row[c] |= 1 << v
                masks[v][c] |= 1 << u
        self._masks = masks

    def colour(self, u: int, v: int) -> int:
        if u == v:
            raise ValueError("pairs need two distinct vertices")
        if u > v:
            u, v = v, u
        return tuple_hash(self.seed, TAG_PAIR_COLOUR, u, v) % self.num_colours

    def colour_mask(self, x: int, c: int) -> int:
        return self._masks[x][c]


class Tournament:
    """Seeded orientation of all pairs: bit v of ``out[u]`` is set when u->v."""

    __slots__ = ("n", "out")

    def __init__(self, n: int, seed: int):
        self.n = n
        out = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if tuple_hash(seed, TAG_TOURNAMENT, u, v) & 1:
                    out[u] |= 1 << v
                else:
                    out[v] |= 1 << u
        self.out = out


class TripleOrientation:
    """One cyclic class per vertex triple.

    For a sorted triple x < y < z the class is 0 for the rotation with arcs
    x->y, y->z, z->x and 1 for the reverse rotation with arcs x->z, z->y,
    y->x.  Instances either draw each class from the seed stream, derive it
    from a tournament, or take any class function ``cls_fn(x, y, z)`` of a
    sorted triple.

    The tournament rule picks the rotation whose arcs agree with an odd
    number (one or three) of the three tournament arcs.  By arc pattern
    (t(x,y), t(y,z), t(z,x)), writing t(a,b)=1 when a beats b, rotation 0 is
    chosen for 111, 100, 010, 001 and rotation 1 for 000, 110, 101, 011.
    """

    __slots__ = ("n", "_cls")

    def __init__(self, n: int, cls_fn):
        self.n = n
        self._cls = cls_fn

    @classmethod
    def seeded(cls, n: int, seed: int) -> "TripleOrientation":
        def cls_fn(x, y, z):
            return tuple_hash(seed, TAG_TRIPLE_ORIENT, x, y, z) & 1
        return cls(n, cls_fn)

    @classmethod
    def from_tournament(cls, t: Tournament) -> "TripleOrientation":
        out = t.out

        def cls_fn(x, y, z):
            agree = (out[x] >> y & 1) + (out[y] >> z & 1) + (out[z] >> x & 1)
            return 1 - (agree & 1)
        return cls(t.n, cls_fn)


def hypergraph_from_pair_pattern(colouring: PairColouring,
                                 allowed: Iterable[tuple[int, int, int]]) -> Hypergraph3:
    """Hypergraph whose edges are the triples x < y < z whose ordered
    pair-colour pattern (colour(x,y), colour(x,z), colour(y,z)) lies in
    ``allowed``.

    Built with bitmask algebra: for each pair {u, v} the admissible third
    vertices w are unions of colour-mask intersections, split by the slot the
    pair {u, v} occupies in the sorted triple (first for w > v, middle for
    u < w < v, last for w < u).
    """
    n = colouring.n
    kc = colouring.num_colours
    allowed = set(allowed)
    for pat in allowed:
        if len(pat) != 3 or not all(0 <= c < kc for c in pat):
            raise ValueError("bad pattern %r for %d colours" % (pat, kc))
    by_first: list[list[tuple[int, int]]] = [[] for _ in range(kc)]
    by_middle: list[list[tuple[int, int]]] = [[] for _ in range(kc)]
    by_last: list[list[tuple[int, int]]] = [[] for _ in range(kc)]
    for a, b, c in allowed:
        by_first[a].append((b, c))
        by_middle[b].append((a, c))
        by_last[c].append((a, b))
    full = (1 << n) - 1
    rows = []
    cmask = colouring.colour_mask
    for u in range(n):
        above_u = full >> (u + 1) << (u + 1)
        below_u = (1 << u) - 1
        for v in range(u + 1, n):
            cuv = colouring.colour(u, v)
            above_v = full >> (v + 1) << (v + 1)
            between = above_u & ((1 << v) - 1)
            row = 0
            for b, c in by_first[cuv]:
                # triple (u, v, w): pattern (c_uv, colour(u,w), colour(v,w))
                row |= cmask(u, b) & cmask(v, c) & above_v
            for a, c in by_middle[cuv]:
                # triple (u, w, v): pattern (colour(u,w), c_uv, colour(w,v))
                row |= cmask(u, a) & cmask(v, c) & between
            for a, b in by_last[cuv]:
                # triple (w, u, v): pattern (colour(w,u), colour(w,v), c_uv)
                row |= cmask(u, a) & cmask(v, b) & below_u
            rows.append(row)
    return Hypergraph3(n, rows, colouring=colouring)


def gen_tournament_3hg(n: int, seed: int) -> Hypergraph3:
    """Cyclic triangles of a seeded random tournament, as a 3-uniform hypergraph."""
    check_construction("tournament3", n, None)
    t = Tournament(n, seed)
    out = t.out
    full = (1 << n) - 1
    rows = []
    for u in range(n):
        into_u = full & ~out[u] & ~(1 << u)
        for v in range(u + 1, n):
            if out[u] >> v & 1:
                # u->v: {u,v,w} is cyclic iff v->w and w->u
                rows.append(out[v] & into_u)
            else:
                rows.append(out[u] & full & ~out[v] & ~(1 << v))
    return Hypergraph3(n, rows, orientation=t)


def colouring_kk_patterns(k: int) -> set[tuple[int, int, int]]:
    """Patterns over k-2 colours where the two pairs at the smallest vertex
    of the triple receive different colours."""
    if k < 4:
        raise ValueError("k must be at least 4 for a nonempty pattern table")
    kc = k - 2
    return {(a, b, c) for a in range(kc) for b in range(kc) for c in range(kc) if a != b}


def gen_colouring_kk_free(n: int, k: int, seed: int) -> Hypergraph3:
    """Pairs get one of k-2 colours; {x<y<z} is an edge iff the colours of
    {x,y} and {x,z} differ.  Spans no complete 3-uniform clique on k vertices."""
    check_construction("colouring-kk", n, k)
    if k == 3:
        # a single colour never satisfies the disagreement rule
        h = Hypergraph3.empty(n)
        h.colouring = PairColouring(n, 1, seed)
        return h
    colouring = PairColouring(n, k - 2, seed)
    return hypergraph_from_pair_pattern(colouring, colouring_kk_patterns(k))


def party_of_six_patterns() -> set[tuple[int, int, int]]:
    return {(a, b, c) for a in range(2) for b in range(2) for c in range(2)
            if not a == b == c}


def gen_party_of_six(n: int, seed: int) -> Hypergraph3:
    """Two pair colours; a triple is an edge iff its pairs are not monochromatic.
    Spans no complete 3-uniform hypergraph on six vertices."""
    check_construction("party6", n, None)
    colouring = PairColouring(n, 2, seed)
    return hypergraph_from_pair_pattern(colouring, party_of_six_patterns())


def gen_rainbow_1_27(n: int, seed: int) -> Hypergraph3:
    """Three pair colours; {i<j<k} is an edge iff the ordered pattern is
    exactly (red, blue, green).  Density concentrates near 1/27."""
    check_construction("rainbow27", n, None)
    colouring = PairColouring(n, 3, seed)
    return hypergraph_from_pair_pattern(colouring, {(RED, BLUE, GREEN)})


def sk_free_patterns(k: int) -> set[tuple[int, int, int]]:
    """Allowed ordered colour patterns for the star-free construction on k-1
    colours: equal-end patterns (a, b, a) with b != a, plus rainbow patterns
    avoiding the cyclically excluded shape (i, j, i+1 mod k-1).

    Exactly (k-1)(k-2) + (k-1)(k-3)^2 of the (k-1)^3 patterns are allowed.
    """
    if k < 4:
        raise ValueError("k must be at least 4")
    kc = k - 1
    allowed = set()
    for a in range(kc):
        for b in range(kc):
            for c in range(kc):
                if a == c and a != b:
                    allowed.add((a, b, c))
                elif len({a, b, c}) == 3 and c != (a + 1) % kc:
                    allowed.add((a, b, c))
    return allowed


def gen_sk_free(n: int, k: int, seed: int) -> Hypergraph3:
    """Pattern-table construction on k-1 pair colours; no vertex has a clique
    of size k in its link graph, so no star with k leaves appears."""
    check_construction("sk-free", n, k)
    colouring = PairColouring(n, k - 1, seed)
    return hypergraph_from_pair_pattern(colouring, sk_free_patterns(k))


def _orientation_tables(orient: TripleOrientation) -> tuple[list, list, list]:
    """Bitmask views of a triple orientation, ``(base, dir_pair, trans)``,
    read by ``quad_hypergraph_from_orientation``; ``base`` is the pair-row
    base of n.

    ``dir_pair`` is indexed by the unordered pair {u < v}; bit w says the
    triple {u, v, w} traverses the pair from u to v (low to high).
    ``trans[u][v]`` bit d says the triple {u, v, d} traverses the pair
    {u, d} from min(u, d) to max(u, d).
    """
    n = orient.n
    dir_pair = [0] * (n * (n - 1) // 2)
    trans = [[0] * n for _ in range(n)]
    base = _pair_base(n)
    cls_fn = orient._cls
    for x in range(n):
        bx = base[x] - x - 1
        for y in range(x + 1, n):
            by = base[y] - y - 1
            dxy = dir_pair[bx + y]
            for z in range(y + 1, n):
                if cls_fn(x, y, z) == 0:
                    # rotation arcs x->y, y->z, z->x
                    dxy |= 1 << z
                    dir_pair[by + z] |= 1 << x
                    trans[x][z] |= 1 << y
                    trans[y][z] |= 1 << x
                    trans[y][x] |= 1 << z
                    trans[z][x] |= 1 << y
                else:
                    # rotation arcs x->z, z->y, y->x
                    dir_pair[bx + z] |= 1 << y
                    trans[x][y] |= 1 << z
                    trans[z][y] |= 1 << x
            dir_pair[bx + y] = dxy
    return base, dir_pair, trans


def quad_hypergraph_from_orientation(orient: TripleOrientation) -> Hypergraph4:
    """4-uniform hypergraph of a triple orientation: a quadruple is an edge
    iff each of its six pairs is traversed in opposite directions by the two
    triples of the quadruple containing it."""
    n = orient.n
    if not 4 <= n <= N4_CAP:
        raise ValueError("n=%d outside [4, %d]" % (n, N4_CAP))
    base, dir_pair, trans = _orientation_tables(orient)
    full = (1 << n) - 1
    rows = [[0] * n for _ in range(n * (n - 1) // 2)]
    for u in range(n):
        bu = base[u] - u - 1
        tu = trans[u]
        for v in range(u + 1, n):
            duv = dir_pair[bu + v]
            tv = trans[v]
            tuv, tvu = tu[v], tv[u]
            pair = rows[bu + v]
            not_uvx = full & ~(1 << u) & ~(1 << v)
            for x in range(n):
                if x == u or x == v:
                    continue
                lo, hi = (u, x) if u < x else (x, u)
                dux = dir_pair[base[lo] + hi - lo - 1]
                lo, hi = (v, x) if v < x else (x, v)
                dvx = dir_pair[base[lo] + hi - lo - 1]
                # pair {u,v}: thirds x, y must fall in opposite classes;
                # pairs {u,x} and {v,x}: y opposite to the known third;
                # pairs {u,y}, {v,y}, {x,y}: exclusive-or of transposed rows
                m = duv if not duv >> x & 1 else ~duv
                m &= dux if not dux >> v & 1 else ~dux
                m &= dvx if not dvx >> u & 1 else ~dvx
                m &= (tuv ^ tu[x]) & (tvu ^ tv[x]) & (trans[x][u] ^ trans[x][v])
                pair[x] = m & not_uvx & ~(1 << x)
    return Hypergraph4(n, rows, orientation=orient)


def gen_oriented_4hg(n: int, seed: int) -> Hypergraph4:
    """Opposite-traversal hypergraph of a seeded uniform triple orientation;
    density concentrates near 1/8."""
    check_construction("oriented4", n, None)
    return quad_hypergraph_from_orientation(TripleOrientation.seeded(n, seed))


def gen_leader_tan(n: int, seed: int) -> Hypergraph4:
    """Opposite-traversal hypergraph of the triple orientation derived from a
    seeded tournament by the odd-agreement rule; density concentrates near 1/4."""
    check_construction("leader-tan", n, None)
    t = Tournament(n, seed)
    h = quad_hypergraph_from_orientation(TripleOrientation.from_tournament(t))
    return h


def gen_random_3hg(n: int, density_num: int, density_den: int, seed: int) -> Hypergraph3:
    """Uniform random 3-uniform hypergraph: each triple is an edge
    independently with probability num/den.  Probe and test plumbing;
    ``from_edges`` checks n before it draws a triple."""
    edges = ((x, y, z)
             for x in range(n) for y in range(x + 1, n) for z in range(y + 1, n)
             if bernoulli(density_num, density_den, seed, TAG_RANDOM_TRIPLE, x, y, z))
    return Hypergraph3.from_edges(n, edges)


CONSTRUCTIONS = {
    "tournament3": lambda n, k, seed: gen_tournament_3hg(n, seed),
    "colouring-kk": gen_colouring_kk_free,
    "party6": lambda n, k, seed: gen_party_of_six(n, seed),
    "rainbow27": lambda n, k, seed: gen_rainbow_1_27(n, seed),
    "sk-free": gen_sk_free,
    "oriented4": lambda n, k, seed: gen_oriented_4hg(n, seed),
    "leader-tan": lambda n, k, seed: gen_leader_tan(n, seed),
}
