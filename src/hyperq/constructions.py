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
    iter_bits,
)
from .hashing import (
    TAG_PAIR_COLOUR,
    TAG_RANDOM_TRIPLE,
    TAG_TOURNAMENT,
    TAG_TRIPLE_ORIENT,
    bernoulli_cut,
    child_hashes,
    odd_children,
    tuple_hash,
)

RED, BLUE, GREEN = 0, 1, 2


class PairColouring:
    """Deterministic seeded colouring of unordered vertex pairs.

    colour(u, v) hashes (seed, min, max) and reduces modulo the number of
    colours.  ``colour_mask(x, c)`` gives the vertices y with
    colour(x, y) == c as a bitmask; the colours and masks are built once at
    construction, with each vertex's prefix hashed once.
    """

    __slots__ = ("n", "num_colours", "_table", "_masks")

    def __init__(self, n: int, num_colours: int, seed: int):
        if num_colours < 1:
            raise ValueError("need at least one colour")
        self.n = n
        self.num_colours = num_colours
        # _table[u][v - u - 1] is the colour of {u, v}, u < v
        table = []
        masks = [[0] * num_colours for _ in range(n)]
        for u, hu in enumerate(child_hashes(tuple_hash(seed, TAG_PAIR_COLOUR), 0, n)):
            colours = [h % num_colours for h in child_hashes(hu, u + 1, n)]
            table.append(colours)
            row, bit = masks[u], 1 << u
            for v, c in enumerate(colours, u + 1):
                row[c] |= 1 << v
                masks[v][c] |= bit
        self._table = table
        self._masks = masks

    def colour(self, u: int, v: int) -> int:
        if u == v:
            raise ValueError("pairs need two distinct vertices")
        if u > v:
            u, v = v, u
        if u < 0 or v >= self.n:
            raise ValueError("pair (%d, %d) out of range for n=%d" % (u, v, self.n))
        return self._table[u][v - u - 1]

    def colour_mask(self, x: int, c: int) -> int:
        return self._masks[x][c]


class Tournament:
    """Seeded orientation of all pairs: bit v of ``out[u]`` is set when u->v."""

    __slots__ = ("n", "out")

    def __init__(self, n: int, seed: int):
        self.n = n
        out = [0] * n
        full = (1 << n) - 1
        for u, hu in enumerate(child_hashes(tuple_hash(seed, TAG_TOURNAMENT), 0, n)):
            wins = odd_children(hu, u + 1, n)
            out[u] |= wins
            bit = 1 << u
            for v in iter_bits(full >> (u + 1) << (u + 1) & ~wins):
                out[v] |= bit
        self.out = out


class TripleOrientation:
    """One cyclic orientation per vertex triple, held as its pair directions.

    ``dirs`` has one mask per pair {u < v}, in pair-row order, with bit w
    set when the triple {u, v, w} traverses the pair from u to v.  A sorted
    triple x < y < z has class 0, the rotation x->y, y->z, z->x, or class 1,
    the reverse rotation x->z, z->y, y->x.  Class 0 traverses {x, y} and
    {y, z} upward, class 1 only {x, z}.

    ``seeded`` draws each class from the seed stream.  ``from_tournament``
    picks the rotation whose arcs agree with an odd number (one or three) of
    the three tournament arcs: by arc pattern (t(x,y), t(y,z), t(z,x)),
    writing t(a,b)=1 when a beats b, rotation 0 is chosen for 111, 100,
    010, 001 and rotation 1 for 000, 110, 101, 011.
    """

    __slots__ = ("n", "dirs")

    def __init__(self, n: int, dirs: list[int]):
        self.n = n
        self.dirs = dirs

    @classmethod
    def seeded(cls, n: int, seed: int) -> "TripleOrientation":
        base = _pair_base(n)
        full = (1 << n) - 1
        dirs = [0] * (n * (n - 1) // 2)
        for x, hx in enumerate(child_hashes(tuple_hash(seed, TAG_TRIPLE_ORIENT), 0, n)):
            bx = base[x] - x - 1
            bit_x = 1 << x
            for y, hxy in enumerate(child_hashes(hx, x + 1, n), x + 1):
                by = base[y] - y - 1
                # the z > y whose triple {x, y, z} has class 1, then class 0
                c1 = odd_children(hxy, y + 1, n)
                c0 = full >> (y + 1) << (y + 1) & ~c1
                dirs[bx + y] |= c0
                for z in iter_bits(c0):
                    dirs[by + z] |= bit_x
                bit_y = 1 << y
                for z in iter_bits(c1):
                    dirs[bx + z] |= bit_y
        return cls(n, dirs)

    @classmethod
    def from_tournament(cls, t: Tournament) -> "TripleOrientation":
        # the rotation through u->v, v->w, w->u agrees with t(u,v) + t(v,w)
        # + 1 - t(u,w) arcs, an odd number exactly when t(u,v) ^ t(u,w) ^
        # t(v,w) is 0: bit w of out[u] ^ out[v], flipped unless u beats v
        n, out = t.n, t.out
        full = (1 << n) - 1
        dirs = []
        for u in range(n):
            ou = out[u]
            for v in range(u + 1, n):
                keep = 0 if ou >> v & 1 else full
                dirs.append((ou ^ out[v] ^ keep) & ~(1 << u | 1 << v))
        return cls(n, dirs)


def _pattern_terms(allowed: set, kc: int) -> list[list[list]]:
    """``terms[slot][k]`` lists the (u-colours, v-colours) pairs of colour
    sets that give the third vertices w of a pair u < v of colour k, with w
    in ``slot`` of the sorted triple (0 first, 1 middle, 2 last): w
    qualifies when colour(u, w) lies in the first set and colour(v, w) in the
    second of some term.  A set is held as (colours, inverted), the
    complement of the listed colours when inverted, whichever lists fewer.
    Raises ValueError for a pattern that is not three colours of range(kc)."""
    # at_v[slot][k][cu]: mask of the colours cv at v allowed with cu at u
    at_v = [[[0] * kc for _ in range(kc)] for _ in range(3)]
    first, middle, last = at_v
    for pat in allowed:
        a, b, c = pat if len(pat) == 3 else (-1, -1, -1)
        if not (0 <= a < kc and 0 <= b < kc and 0 <= c < kc):
            raise ValueError("bad pattern %r for %d colours" % (pat, kc))
        first[a][b] |= 1 << c
        middle[b][a] |= 1 << c
        last[c][a] |= 1 << b

    def spec(cols):
        if 2 * cols.bit_count() <= kc:
            return tuple(iter_bits(cols)), False
        return tuple(iter_bits((1 << kc) - 1 & ~cols)), True

    terms = []
    for by_k in at_v:
        terms.append([])
        for by_cu in by_k:
            at_u: dict[int, int] = {}
            for cu, cvs in enumerate(by_cu):
                if cvs:
                    at_u[cvs] = at_u.get(cvs, 0) | 1 << cu
            terms[-1].append([(spec(cus), spec(cvs)) for cvs, cus in at_u.items()])
    return terms


def _union(masks: list[int], spec: tuple, others: int) -> int:
    """The union of ``masks[c]`` over the colours of ``spec``; ``others``
    is the union of all of them."""
    cols, inverted = spec
    m = 0
    for c in cols:
        m |= masks[c]
    return others & ~m if inverted else m


def hypergraph_from_pair_pattern(colouring: PairColouring,
                                 allowed: Iterable[tuple[int, int, int]]) -> Hypergraph3:
    """Hypergraph whose edges are the triples x < y < z whose ordered
    pair-colour pattern (colour(x,y), colour(x,z), colour(y,z)) lies in
    ``allowed``.

    Built with bitmask algebra: for each pair {u, v} the admissible third
    vertices w are unions of colour-mask intersections, split by the slot the
    pair {u, v} occupies in the sorted triple (first for w > v, middle for
    u < w < v, last for w < u).  The patterns of each slot and pair colour
    are grouped by their colour sets (``_pattern_terms``), so a pair costs
    O(k) mask operations for k colours, not one per pattern.
    """
    n = colouring.n
    first, middle, last = _pattern_terms(set(allowed), colouring.num_colours)
    masks = colouring._masks
    full = (1 << n) - 1
    rows = []
    for u, colours in enumerate(colouring._table):
        mu, others_u = masks[u], full ^ 1 << u
        above_u = full >> (u + 1) << (u + 1)
        below_u = (1 << u) - 1
        for v, k in enumerate(colours, u + 1):
            mv, others_v = masks[v], full ^ 1 << v
            row = 0
            for window, terms in ((above_u >> (v + 1) << (v + 1), first[k]),
                                  (above_u & ((1 << v) - 1), middle[k]),
                                  (below_u, last[k])):
                for at_u, at_v in terms:
                    row |= _union(mu, at_u, others_u) & _union(mv, at_v, others_v) & window
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
    return Hypergraph3(n, rows)


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


def quad_hypergraph_from_orientation(orient: TripleOrientation) -> Hypergraph4:
    """4-uniform hypergraph of a triple orientation: a quadruple is an edge
    iff each of its six pairs is traversed in opposite directions by the two
    triples of the quadruple containing it.

    The three pairs of one triple T of the quadruple already decide it: each
    ties the class of one other triple to the class of T, and the rule has
    one solution for each class of T.  So for u < v < x the mask of the
    fourth vertices y needs only the directions of {u, v}, {u, x} and
    {v, x}, and it is the link of all three pairs of the triple."""
    n = orient.n
    if not 4 <= n <= N4_CAP:
        raise ValueError("n=%d outside [4, %d]" % (n, N4_CAP))
    base, dirs = _pair_base(n), orient.dirs
    rows = [[0] * n for _ in range(len(dirs))]
    for u in range(n):
        bu = base[u] - u - 1
        for v in range(u + 1, n):
            bv = base[v] - v - 1
            duv = dirs[bu + v]
            row_uv = rows[bu + v]
            for x in range(v + 1, n):
                dux, dvx = dirs[bu + x], dirs[bv + x]
                if duv >> x & 1:
                    # class 0 takes {u, v} and {v, x} upward and {u, x}
                    # downward, so the triples through y must do the opposite
                    m = dux & ~(duv | dvx)
                else:
                    m = duv & dvx & ~dux
                row_uv[x] = rows[bu + x][v] = rows[bv + x][u] = m
    return Hypergraph4(n, rows)


def gen_oriented_4hg(n: int, seed: int) -> Hypergraph4:
    """Opposite-traversal hypergraph of a seeded uniform triple orientation;
    density concentrates near 1/8."""
    check_construction("oriented4", n, None)
    return quad_hypergraph_from_orientation(TripleOrientation.seeded(n, seed))


def gen_leader_tan(n: int, seed: int) -> Hypergraph4:
    """Opposite-traversal hypergraph of the triple orientation derived from a
    seeded tournament by the odd-agreement rule; density concentrates near 1/4."""
    check_construction("leader-tan", n, None)
    return quad_hypergraph_from_orientation(TripleOrientation.from_tournament(Tournament(n, seed)))


def gen_random_3hg(n: int, density_num: int, density_den: int, seed: int) -> Hypergraph3:
    """Uniform random 3-uniform hypergraph: each triple is an edge
    independently with probability num/den.  Probe and test plumbing;
    ``from_edges`` checks n before it draws a triple."""
    cut = bernoulli_cut(density_num, density_den)

    def edges():
        for x, hx in enumerate(child_hashes(tuple_hash(seed, TAG_RANDOM_TRIPLE), 0, n)):
            for y, hxy in enumerate(child_hashes(hx, x + 1, n), x + 1):
                for z, h in enumerate(child_hashes(hxy, y + 1, n), y + 1):
                    if h * density_den < cut:
                        yield x, y, z
    return Hypergraph3.from_edges(n, edges())


CONSTRUCTIONS = {
    "tournament3": lambda n, k, seed: gen_tournament_3hg(n, seed),
    "colouring-kk": gen_colouring_kk_free,
    "party6": lambda n, k, seed: gen_party_of_six(n, seed),
    "rainbow27": lambda n, k, seed: gen_rainbow_1_27(n, seed),
    "sk-free": gen_sk_free,
    "oriented4": lambda n, k, seed: gen_oriented_4hg(n, seed),
    "leader-tan": lambda n, k, seed: gen_leader_tan(n, seed),
}
