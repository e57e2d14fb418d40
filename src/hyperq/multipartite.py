"""Multipartite graphs: mean-square degree profiles, triangle search and
counting, the half-split extremal pattern, threshold diagnostics, auxiliary
triple blocks with their projections, and the triangle-free explorer.  The
explorer returns where a seeded climb from the half-split ends: with three or
more parts that is the half-split, since every insertion closes a triangle
and every swap drops another pair below 1/4; with two parts, random fill-in.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterator, Sequence

from . import detectors
from .core import N3_CAP, CapExceeded, Graph, ParseError, canonical_text, iter_bits
from .hashing import TAG_AUX_TRIPLE, TAG_MP_EDGE, bernoulli, subseed

# a complete graph on 64 parts of 64 vertices holds 4096 row ints of 4096
# bits, about 2.4 MB traced
MP_MAX_PARTS = 64
MP_MAX_VERTICES = N3_CAP
# the paper's density threshold: the half-split's least mean-square ratio,
# which the hypotheses ask to exceed by epsilon
THRESHOLD = Fraction(1, 4)


def distinct_indices(what: str, key, size: int, m: int) -> tuple[int, ...]:
    """``key`` as a tuple, refused unless it is ``size`` distinct indices of
    range(m); ``what`` names it in the refusal."""
    key = tuple(key)
    if len(key) != size or len(set(key)) != size or not all(
            type(x) is int and 0 <= x < m for x in key):
        raise ValueError("%s %r is not %d distinct indices of range(%d)" % (what, key, size, m))
    return key


class MultipartiteGraph:
    """Graph on vertex parts V_0..V_{m-1} with edges only between parts, held
    as one ``Graph`` in which vertex a of part i is ``offsets[i] + a``;
    ``offsets`` has m + 1 entries, the last one the vertex count.  No part has
    inner edges, so a clique of ``graph`` meets each part at most once.
    """

    __slots__ = ("sizes", "offsets", "graph")

    def __init__(self, sizes: Sequence[int]):
        self.sizes = tuple(sizes)
        if any(s < 0 for s in self.sizes):
            raise ValueError("part sizes must be nonnegative")
        if len(self.sizes) > MP_MAX_PARTS:
            raise CapExceeded("multipartite graphs support m <= %d parts" % MP_MAX_PARTS)
        if sum(self.sizes) > MP_MAX_VERTICES:
            raise CapExceeded("multipartite graphs support at most %d vertices"
                              % MP_MAX_VERTICES)
        offsets = [0]
        for s in self.sizes:
            offsets.append(offsets[-1] + s)
        self.offsets = offsets
        self.graph = Graph(offsets[-1])

    @property
    def m(self) -> int:
        return len(self.sizes)

    def _pair(self, i: int, a: int, j: int, b: int) -> tuple[int, int]:
        """The vertices of ``graph`` behind vertex a of part i and vertex b of
        part j, refused unless both exist and the parts differ."""
        for part, v in ((i, a), (j, b)):
            if not (0 <= part < self.m and 0 <= v < self.sizes[part]):
                raise ValueError("no vertex %r in part %r" % (v, part))
        if i == j:
            raise ValueError("vertices %r and %r both lie in part %r" % (a, b, i))
        return self.offsets[i] + a, self.offsets[j] + b

    def add_edge(self, i: int, a: int, j: int, b: int) -> None:
        self.graph.add_edge(*self._pair(i, a, j, b))

    def has_edge(self, i: int, a: int, j: int, b: int) -> bool:
        return self.graph.has_edge(*self._pair(i, a, j, b))

    def part_rows(self, i: int, j: int) -> list[int]:
        """``part_rows(i, j)[a]`` is the mask over part j of the neighbours of
        vertex a of part i."""
        if i == j or not (0 <= i < self.m and 0 <= j < self.m):
            raise ValueError("no pair of distinct parts (%r, %r) among %d" % (i, j, self.m))
        low, high = self.offsets[j], self.offsets[j + 1]
        rows = self.graph.rows[self.offsets[i]:self.offsets[i + 1]]
        # an int operation takes time in the bits it reads: shifting first
        # reads those from ``low`` up, masking first those below ``high``
        if low + high > self.offsets[-1]:
            mask = (1 << high - low) - 1
            return [r >> low & mask for r in rows]
        mask = (1 << high) - (1 << low)
        return [(r & mask) >> low for r in rows]

    def pair_density(self, i: int, j: int) -> Fraction:
        """Edges between parts i and j over |V_i||V_j|; 0 if either is empty."""
        edges = sum(r.bit_count() for r in self.part_rows(i, j))
        slots = self.sizes[i] * self.sizes[j]
        return Fraction(edges, slots) if slots else Fraction(0)

    def iter_edges(self) -> Iterator[tuple[int, int, int, int]]:
        """Edges as (i, a, j, b) with i < j, in lexicographic order."""
        for i in range(self.m):
            for j in range(i + 1, self.m):
                for a, row in enumerate(self.part_rows(i, j)):
                    for b in iter_bits(row):
                        yield (i, a, j, b)


def gen_random_multipartite(sizes: Sequence[int], p_num: int, p_den: int,
                            seed: int) -> MultipartiteGraph:
    """Each cross-part pair becomes an edge independently with probability
    p_num/p_den; deterministic in the seed."""
    g = MultipartiteGraph(sizes)
    for i in range(g.m):
        for j in range(i + 1, g.m):
            for a in range(sizes[i]):
                for b in range(sizes[j]):
                    if bernoulli(p_num, p_den, seed, TAG_MP_EDGE, i, a, j, b):
                        g.add_edge(i, a, j, b)
    return g


def half_split(m: int, s: int) -> MultipartiteGraph:
    """Each part of size s splits into halves A and B; complete bipartite
    edges join A of one part to B of every other part.  Triangle-free, with
    every mean-square ratio exactly 1/4."""
    if s % 2:
        raise ValueError("part size must be even")
    if m < 1:
        raise ValueError("need at least one part")
    g = MultipartiteGraph([s] * m)
    half = s // 2
    a_halves = sum(((1 << half) - 1) << off for off in g.offsets[:-1])
    for off in g.offsets[:-1]:
        own = ((1 << s) - 1) << off
        g.graph.rows[off:off + s] = [a_halves << half & ~own] * half + [a_halves & ~own] * half
    return g


class MeanSquareProfile(namedtuple("MeanSquareProfile",
                                   "sizes ratios epsilon satisfied margins")):
    """Mean-square degree ratios, exact, for every ordered part pair.

    ``ratios`` maps (i, j) to the Fraction sum of d_j(x)^2 over
    |V_i||V_j|^2; ``satisfied`` maps each (i, j) with i < j to whether its
    ratio reaches THRESHOLD + epsilon, and ``margins`` to the ratio minus
    THRESHOLD + epsilon."""

    __slots__ = ()

    def min_ratio(self) -> Fraction:
        if not self.ratios:
            raise ValueError("a mean-square profile needs at least two parts")
        return min(self.ratios.values())


def mean_square_profile(g: MultipartiteGraph,
                        epsilon: Fraction = Fraction(0)) -> MeanSquareProfile:
    """Exact ratio sum d_j(x)^2 / (|V_i| |V_j|^2) for all ordered pairs, and
    the verdict at ``THRESHOLD + epsilon`` for each pair i < j."""
    if any(s == 0 for s in g.sizes):
        raise ValueError("profile needs nonempty parts")
    ratios = {}
    for i, j in permutations(range(g.m), 2):
        sq = sum(r.bit_count() ** 2 for r in g.part_rows(i, j))
        ratios[(i, j)] = Fraction(sq, g.sizes[i] * g.sizes[j] ** 2)
    satisfied = {(i, j): ratios[(i, j)] >= THRESHOLD + epsilon
                 for i in range(g.m) for j in range(i + 1, g.m)}
    margins = {key: ratios[key] - (THRESHOLD + epsilon) for key in satisfied}
    return MeanSquareProfile(g.sizes, ratios, epsilon, satisfied, margins)


def _parts_mask(offsets: list[int], parts) -> int:
    return sum((1 << offsets[p + 1]) - (1 << offsets[p]) for p in parts)


def find_triangle_mp(g: MultipartiteGraph):
    """First triangle in part-and-index scan order, or None."""
    # no part has inner edges, so every triangle spans three parts: one scan
    # of the whole graph settles whether any part triple holds one
    if detectors.find_triangle_graph(g.graph) is None:
        return None
    for parts in combinations(range(g.m), 3):
        tri = detectors.find_triangle_graph(g.graph, _parts_mask(g.offsets, parts))
        if tri is not None:
            return tuple((p, x - g.offsets[p]) for p, x in zip(parts, tri))
    return None


def count_triangles_mp(g: MultipartiteGraph, parts: tuple[int, int, int] | None = None) -> int:
    """Exact triangle count, optionally restricted to one part triple."""
    mask = None if parts is None else _parts_mask(
        g.offsets, distinct_indices("part triple", parts, 3, g.m))
    return detectors.count_triangles_graph(g.graph, mask)


class ProofDiagnostics(namedtuple("ProofDiagnostics", "delta epsilon r_max q_sizes r_value"
                                                        " hypothesis_holds claim_violations")):
    """High-degree set sizes per threshold step and the derived colour value
    for every ordered part pair.

    ``q_sizes`` maps (i, j) to the tuple of |Q_ij(r)| for r = 1..r_max and
    ``r_value`` to the largest r with |Q_ij(r)| >= delta |V_i|, else 0;
    ``hypothesis_holds`` maps (i, j), i < j, to whether the mean-square ratio
    reaches 1/4 + epsilon, and ``claim_violations`` lists the pairs where the
    first-step size claim fails."""

    __slots__ = ()


def proof_diagnostics(g: MultipartiteGraph, delta: Fraction,
                      epsilon: Fraction | None = None) -> ProofDiagnostics:
    """Sizes of Q_ij(r) = {x in V_i : d_j(x) >= (1/2 + r*delta)|V_j|} and the
    largest usable r per ordered pair.

    When epsilon is given, also checks that every pair i < j whose
    mean-square ratio reaches 1/4 + epsilon has |Q_ij(1)| >= delta |V_i|
    (guaranteed whenever epsilon >= 2*delta + delta^2).
    """
    if not 0 < delta < Fraction(1, 2):
        raise ValueError("delta must lie strictly between 0 and 1/2")
    if any(s == 0 for s in g.sizes):
        raise ValueError("diagnostics need nonempty parts")
    r_max = int(Fraction(1, 2) / delta)
    q_sizes = {}
    r_value = {}
    hypothesis = {}
    for i, j in permutations(range(g.m), 2):
        degs = sorted(r.bit_count() for r in g.part_rows(i, j))
        needs = [(Fraction(1, 2) + r * delta) * g.sizes[j] for r in range(1, r_max + 1)]
        sizes = [len(degs) - bisect_left(degs, need) for need in needs]
        q_sizes[(i, j)] = tuple(sizes)
        r_value[(i, j)] = max((r for r, size in enumerate(sizes, 1)
                               if size >= delta * g.sizes[i]), default=0)
        if epsilon is not None and i < j:  # the verdict of mean_square_profile
            hypothesis[(i, j)] = (sum(d * d for d in degs)
                                  >= (THRESHOLD + epsilon) * g.sizes[i] * g.sizes[j] ** 2)
    violations = []
    if epsilon is not None and epsilon >= 2 * delta + delta * delta:
        violations = [(i, j) for (i, j), holds in hypothesis.items()
                      if holds and q_sizes[(i, j)][0] < delta * g.sizes[i]]
    return ProofDiagnostics(delta, epsilon, r_max, q_sizes, r_value,
                            hypothesis, violations)


class TripartiteTriples:
    """Triple system over three vertex classes; the auxiliary-block shape."""

    __slots__ = ("sizes", "triples")

    def __init__(self, sizes: tuple[int, int, int], triples):
        self.sizes = tuple(sizes)
        if len(self.sizes) != 3 or any(type(x) is not int or x < 0 for x in self.sizes):
            raise ValueError("need three nonnegative integer class sizes, got %r"
                             % (self.sizes,))
        if max(self.sizes) > MP_MAX_VERTICES:
            raise CapExceeded("auxiliary blocks support classes of at most %d vertices"
                              % MP_MAX_VERTICES)
        listed = [tuple(t) for t in triples]
        trips = frozenset(listed)
        for t in trips:
            if len(t) != 3 or any(type(x) is not int or not 0 <= x < size
                                  for x, size in zip(t, self.sizes)):
                raise ValueError("triple %r out of class range" % (t,))
        if len(trips) < len(listed):
            raise ValueError("triple %r listed twice"
                             % (next(t for t, c in Counter(listed).items() if c > 1),))
        self.triples = trips

    def density(self) -> Fraction:
        slots = self.sizes[0] * self.sizes[1] * self.sizes[2]
        return Fraction(len(self.triples), slots) if slots else Fraction(0)


def gen_random_aux_block(sizes: tuple[int, int, int], p_num: int, p_den: int,
                         seed: int) -> TripartiteTriples:
    triples = [(a, b, c)
               for a in range(sizes[0]) for b in range(sizes[1]) for c in range(sizes[2])
               if bernoulli(p_num, p_den, seed, TAG_AUX_TRIPLE, a, b, c)]
    return TripartiteTriples(tuple(sizes), triples)


class ProjectionReport(namedtuple("ProjectionReport", "epsilon triple_density premise_holds"
                                                      " sum_left sum_right left_holds"
                                                      " right_holds colour flagged")):
    """Outcome of projecting an auxiliary block onto its two side graphs.

    ``premise_holds``: the triple count is >= (1/4 + eps) l1 l2 l3.
    ``sum_left``, ``sum_right``: sums over the middle class of the left- and
    right-degree squares; ``left_holds``: sum_left >= (1/4 + eps) l1^2 l2, and
    ``right_holds``: sum_right >= (1/4 + eps) l3^2 l2.  ``colour`` is 'red'
    when the left estimate fails and 'green' when the right one does;
    ``flagged`` is 'both-hold', 'neither-holds' or None."""

    __slots__ = ()


def project_auxiliary(block: TripartiteTriples,
                      epsilon: Fraction = Fraction(0)) -> ProjectionReport:
    """Project a block onto the bipartite graphs sharing its middle class and
    evaluate the two mean-square estimates at threshold 1/4 + epsilon.

    Whenever the triple count reaches (1/4 + epsilon) l1 l2 l3, the
    Cauchy-Schwarz inequality forces at least one estimate to hold.
    """
    l1, l2, l3 = block.sizes
    if not (l1 and l2 and l3):
        raise ValueError("projection needs nonempty classes")
    left_adj = [0] * l2   # neighbours of each middle vertex in class 1
    right_adj = [0] * l2  # in class 3
    for a, b, c in block.triples:
        left_adj[b] |= 1 << a
        right_adj[b] |= 1 << c
    thr = THRESHOLD + epsilon
    sum_left = sum(r.bit_count() ** 2 for r in left_adj)
    sum_right = sum(r.bit_count() ** 2 for r in right_adj)
    left_holds = sum_left >= thr * (l1 * l1 * l2)
    right_holds = sum_right >= thr * (l3 * l3 * l2)
    premise = len(block.triples) >= thr * (l1 * l2 * l3)
    if left_holds and right_holds:
        colour, flagged = "green", "both-hold"
    elif left_holds:
        colour, flagged = "green", None
    elif right_holds:
        colour, flagged = "red", None
    else:
        colour, flagged = None, "neither-holds"
    return ProjectionReport(epsilon, block.density(), premise,
                            sum_left, sum_right, left_holds, right_holds,
                            colour, flagged)


def _index_key(what: str, key, size: int, m: int, seen: dict) -> tuple[int, ...]:
    """``key`` sorted, refused unless it is ``size`` distinct indices of
    range(m) and sorts to no key of ``seen``."""
    index = tuple(sorted(distinct_indices(what + " key", key, size, m)))
    if index in seen:
        raise ValueError("%s key %r sorts to one given earlier" % (what, key))
    return index


class AuxiliaryHypergraph:
    """Triple system whose vertex classes are indexed by pairs from [m] and
    whose triples live inside blocks indexed by sorted index triples.  A key
    lists its indices in any order; two keys that sort alike are refused."""

    def __init__(self, m: int, class_sizes: dict, blocks: dict):
        self.m = m
        self.class_sizes = {}
        for key, s in class_sizes.items():
            self.class_sizes[_index_key("class", key, 2, m, self.class_sizes)] = s
        for i in range(m):
            for j in range(i + 1, m):
                if (i, j) not in self.class_sizes:
                    raise ValueError("missing class size for pair (%d, %d)" % (i, j))
        self.blocks = {}
        for key, triples in blocks.items():
            i, j, k = key = _index_key("block", key, 3, m, self.blocks)
            sizes = (self.class_sizes[(i, j)], self.class_sizes[(i, k)],
                     self.class_sizes[(j, k)])
            try:
                self.blocks[key] = TripartiteTriples(sizes, triples)
            except ValueError as exc:
                raise ValueError("block %r: %s" % (key, exc)) from None


class ThreeTriplesConfig(namedtuple("ThreeTriplesConfig", "indices vertices apex_extreme")):
    """Three blocks' triples meeting pairwise in the hub-index classes: the
    indices (i1, i2, i3, i4) with i1 < i2 < i3, the class vertex of each
    sorted index pair, and whether the hub i4 is extreme among the four."""

    __slots__ = ()


MAX_AUX_M = 8
MAX_AUX_CLASS = 16


def find_three_triples(aux: AuxiliaryHypergraph):
    """Search for indices i1 < i2 < i3 plus a hub index i4 and six class
    vertices so that the three triples through the hub classes all appear.

    All hub choices that are extreme (largest or smallest of the four
    indices) are searched before any interior hub, so the reported
    ``apex_extreme`` flag is False only when no extreme-hub configuration
    exists at all.  The witness is the least hub triple (p14, p24, p34) of
    the first quadruple and hub in that plan; each rim vertex comes from the
    first triple of its block, in iteration order, through those hub vertices.
    """
    if aux.m > MAX_AUX_M:
        raise CapExceeded("auxiliary search supports m <= %d" % MAX_AUX_M)
    if any(s > MAX_AUX_CLASS for s in aux.class_sizes.values()):
        raise CapExceeded("auxiliary search supports class sizes <= %d" % MAX_AUX_CLASS)

    # (block, position pair) -> {(t[pa], t[pb]): t[3 - pa - pb]}, keeping the
    # first triple in iteration order that completes each pair
    tables: dict[tuple, dict[tuple[int, int], int]] = {}

    def completions(x: int, y: int, hub: int) -> dict:
        """Rim vertices of the block on x, y and hub, keyed by the vertices of
        the (x, hub) and (y, hub) classes."""
        idx = tuple(sorted((x, y, hub)))
        order = ((idx[0], idx[1]), (idx[0], idx[2]), (idx[1], idx[2]))
        pa = order.index(tuple(sorted((x, hub))))
        pb = order.index(tuple(sorted((y, hub))))
        table = tables.get((idx, pa, pb))
        if table is None:
            table = tables[(idx, pa, pb)] = {}
            blk = aux.blocks.get(idx)
            for t in blk.triples if blk else ():
                table.setdefault((t[pa], t[pb]), t[3 - pa - pb])
        return table

    quads = list(combinations(range(aux.m), 4))
    plan = [(quad, hub) for quad in quads for hub in (quad[3], quad[0])]
    plan += [(quad, hub) for quad in quads for hub in (quad[1], quad[2])]
    for quad, hub in plan:
        i1, i2, i3 = rest = tuple(sorted(set(quad) - {hub}))
        s14, s24, s34 = (tuple(sorted((r, hub))) for r in rest)
        t12 = completions(i1, i2, hub)
        t13 = completions(i1, i3, hub)
        t23 = completions(i2, i3, hub)
        for p14, p24 in sorted(t12):
            for p34 in range(aux.class_sizes[s34]):
                if (p14, p34) in t13 and (p24, p34) in t23:
                    vertices = {s14: p14, s24: p24, s34: p34,
                                (i1, i2): t12[(p14, p24)],
                                (i1, i3): t13[(p14, p34)],
                                (i2, i3): t23[(p24, p34)]}
                    return ThreeTriplesConfig((i1, i2, i3, hub), vertices,
                                              hub in (quad[0], quad[3]))
    return None


ExploreResult = namedtuple("ExploreResult", "graph min_ratio accepted_moves")


def explore_extremal(m: int, s: int, epsilon: Fraction | None = None,
                     restarts: int = 32, seed: int = 0,
                     moves: int = 400) -> ExploreResult:
    """The outcome of a seeded hill climb on the minimum mean-square ratio
    over triangle-free m-partite graphs with parts of even size s, started
    from the half-split pattern, where every ratio is exactly 1/4.

    Each of the ``restarts`` runs draws up to ``moves`` cross pairs and
    inserts a missing one, after removing a random edge when the insertion
    would close a triangle; a move is kept when the minimum ratio rises
    (or, on a seeded coin, stays level) and the run stops once it reaches
    1/4 + ``epsilon``.  That climb is settled here in closed form:

    - m >= 3: it never leaves the start.  A missing cross pair joins two A
      halves or two B halves, and both ends see the opposite half of any
      third part, so every insertion closes a triangle.  The removal that
      follows either takes an edge of the same part pair, which leaves the
      triangle in place and drops the move, or takes an edge of another
      part pair, whose square sum then falls below the common minimum, so
      the move is rejected.  The result is the half-split with no move.
    - m = 2: no triangle exists and an insertion raises both ratios, so
      every draw of a missing pair inserts it and counts as a move.  The
      draws are a part pair (``rng.sample``) and one vertex of each part.
    """
    if m < 2 or s < 2 or s % 2:
        raise ValueError("need m >= 2 parts of even size s >= 2")
    if restarts < 0:
        raise ValueError("restarts must be nonnegative, got %d" % restarts)
    if m > 8 or s > 64:
        raise CapExceeded("explorer budget is m <= 8, s <= 64")
    best, best_ratio, accepted = half_split(m, s), THRESHOLD, 0
    if m > 2:
        return ExploreResult(best, best_ratio, accepted)
    for restart in range(restarts):
        rng = random.Random(subseed(seed, restart))
        g, ratio = half_split(2, s), THRESHOLD
        for _ in range(moves):
            rng.sample(range(2), 2)
            a, b = rng.randrange(s), rng.randrange(s)
            if g.has_edge(0, a, 1, b):
                continue
            g.add_edge(0, a, 1, b)
            accepted += 1
            ratio = mean_square_profile(g).min_ratio()
            if epsilon is not None and ratio >= THRESHOLD + epsilon:
                break
        if ratio > best_ratio:
            best, best_ratio = g, ratio
    return ExploreResult(best, best_ratio, accepted)


def write_multipartite(g: MultipartiteGraph) -> str:
    """Text format: "mp <m> <s_0> ... <s_{m-1}>" then sorted edge lines."""
    lines = ["mp %d %s" % (g.m, " ".join(str(s) for s in g.sizes))]
    lines.extend("%d %d %d %d" % e for e in g.iter_edges())
    return "\n".join(lines) + "\n"


def _digits(fields: Sequence[str]) -> bool:
    return all(f.isascii() and f.isdigit() for f in fields)


def read_multipartite(text: str) -> MultipartiteGraph:
    """Parse ``write_multipartite``'s format under ``canonical_text``'s
    lexical rule; every field but the header's leading ``mp`` is ASCII digits."""
    lines = canonical_text(text).split("\n")[:-1]
    head = lines[0].split(" ")
    if head[0] != "mp":
        raise ParseError("line 1: expected 'mp' header")
    try:
        if len(head) < 2 or not _digits(head[1:]):
            raise ValueError
        m = int(head[1])
        sizes = [int(x) for x in head[2:]]
    except ValueError:
        raise ParseError("line 1: header must be 'mp <m> <sizes...>'") from None
    if len(sizes) != m:
        raise ParseError("line 1: expected %d part sizes" % m)
    g = MultipartiteGraph(sizes)
    rows, offsets = g.graph.rows, g.offsets
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split(" ")
        if len(parts) != 4:
            raise ParseError("line %d: expected '<i> <a> <j> <b>'" % ln)
        try:
            if not _digits(parts):
                raise ValueError
            i, a, j, b = (int(x) for x in parts)
        except ValueError:
            raise ParseError("line %d: fields must be integers of ASCII digits" % ln) from None
        if not (0 <= i < m and 0 <= j < m) or i >= j:
            raise ParseError("line %d: need part indices with i < j" % ln)
        if not (0 <= a < sizes[i] and 0 <= b < sizes[j]):
            raise ParseError("line %d: vertex index out of range" % ln)
        u, v = offsets[i] + a, offsets[j] + b
        if rows[u] >> v & 1:
            raise ParseError("line %d: duplicate edge" % ln)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return g


# a field of the wrong JSON type (a number where a list belongs, a list where
# an object does) raises one of the caught errors while the model is built
def read_block(text: str) -> TripartiteTriples:
    data = json.loads(text)
    try:
        return TripartiteTriples(tuple(data["sizes"]), [tuple(t) for t in data["triples"]])
    except (TypeError, IndexError) as exc:
        raise ValueError("malformed block: %s" % exc) from None


def read_auxiliary(text: str) -> AuxiliaryHypergraph:
    data = json.loads(text)
    try:
        m = data["m"]
        sizes = {tuple(int(x) for x in key.split(",")): v
                 for key, v in data["class_sizes"].items()}
        blocks = {tuple(int(x) for x in key.split(",")): [tuple(t) for t in triples]
                  for key, triples in data.get("blocks", {}).items()}
        for value in (m, *sizes.values()):
            if type(value) is not int or value < 0:
                raise ValueError("m and the class sizes must be nonnegative integers,"
                                 " not %r" % (value,))
        return AuxiliaryHypergraph(m, sizes, blocks)
    except (TypeError, AttributeError) as exc:
        raise ValueError("malformed auxiliary system: %s" % exc) from None
