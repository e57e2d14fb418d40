"""Forbidden-configuration detectors: four vertices spanning three edges
(with an ordered-apex variant), 3-uniform cliques, apex stars, the
three-edge 4-uniform pattern, a generic small-pattern embedder, the
red/blue/green vanishing-condition checker, and link-colouring witnesses.

Witness tie-breaking is lexicographic on the vertex tuple, and counts are
exact rather than early-exit, so reports are reproducible.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, permutations
from typing import Iterator

from .core import CapExceeded, Graph, Hypergraph3, Hypergraph4, iter_bits

EMBED_MAX_PATTERN = 8
VANISHING_MAX_VERTICES = 6
CLIQUE_MAX_K = 8
K_LEAST = {"clique": 4, "sk": 3}  # the least k of each pattern that reads one


class Witness(namedtuple("Witness", "kind vertices apex apex_position")):
    """A concrete occurrence of a forbidden pattern: its distinct vertices,
    and the apex among them with its position ('min', 'max' or 'interior')
    where the pattern has one."""

    __slots__ = ()

    def __new__(cls, kind, vertices, apex=None, apex_position=None):
        if len(set(vertices)) != len(vertices):
            raise ValueError("witness vertices must be distinct")
        if apex is not None and apex not in vertices:
            raise ValueError("apex must be one of the witness vertices")
        return super().__new__(cls, kind, vertices, apex, apex_position)


def _apex_position(vertices: tuple[int, ...], apex: int) -> str:
    if apex == min(vertices):
        return "min"
    if apex == max(vertices):
        return "max"
    return "interior"


def find_triangle_graph(g: Graph, within: int | None = None):
    """Lexicographically least triangle of a graph, or None."""
    full = (1 << g.n) - 1
    within = full if within is None else within
    rows = g.rows
    for x in iter_bits(within):
        row_x = rows[x] & within
        for y in iter_bits(row_x >> (x + 1) << (x + 1)):
            common = row_x & (rows[y] >> (y + 1) << (y + 1))
            if common:
                z = (common & -common).bit_length() - 1
                return (x, y, z)
    return None


def count_triangles_graph(g: Graph, within: int | None = None) -> int:
    full = (1 << g.n) - 1
    within = full if within is None else within
    rows = g.rows
    total = 0
    for x in iter_bits(within):
        row_x = rows[x] & within
        for y in iter_bits(row_x >> (x + 1) << (x + 1)):
            total += (row_x & (rows[y] >> (y + 1) << (y + 1))).bit_count()
    return total


def _least_clique(cand: int, k: int, narrow) -> tuple[int, ...] | None:
    """Lexicographically least k-set grown from the candidate mask by
    depth-first search.  ``narrow(chosen, v, above)`` gets the chosen prefix,
    the next vertex v and the candidates above v, and returns those that can
    still join once v does."""
    chosen: list[int] = []

    def extend(cand: int) -> bool:
        if len(chosen) == k:
            return True
        if len(chosen) + cand.bit_count() < k:
            return False
        for v in iter_bits(cand):
            above = narrow(chosen, v, cand >> (v + 1) << (v + 1))
            chosen.append(v)
            if extend(above):
                return True
            chosen.pop()
        return False

    return tuple(chosen) if extend(cand) else None


def find_clique_graph(g: Graph, k: int):
    """Lexicographically least k-clique of a graph, or None, for a k that
    ``check_k("sk", k)`` allows."""
    rows = g.rows
    return _least_clique((1 << g.n) - 1, k, lambda chosen, v, above: above & rows[v])


def _least_apex(h: Hypergraph3, kind: str, found) -> Witness | None:
    """Least (sorted vertices, apex) over the apexes a, where ``found(a, link)``
    lists what was found (a vertex tuple, or None) in a's link graph."""
    best = min(((tuple(sorted((a,) + other)), a)
                for a in range(h.n) for other in found(a, h.link_graph(a))
                if other is not None), default=None)
    if best is None:
        return None
    vertices, apex = best
    return Witness(kind, vertices, apex, _apex_position(vertices, apex))


def find_k4_minus(h: Hypergraph3, ordered: bool = False) -> Witness | None:
    """Least 4-set spanning three edges through one apex vertex.

    In ordered mode only witnesses whose apex is the smallest or largest of
    the four vertices qualify.
    """
    if not ordered:
        return _least_apex(h, "k4minus", lambda a, link: (find_triangle_graph(link),))
    full = (1 << h.n) - 1
    return _least_apex(h, "k4minus", lambda a, link: (
        find_triangle_graph(link, full >> (a + 1) << (a + 1)),
        find_triangle_graph(link, (1 << a) - 1)))


def count_k4_minus(h: Hypergraph3) -> int:
    """Exact number of (4-set, apex) pairs whose three apex triples are edges."""
    return sum(count_triangles_graph(h.link_graph(a)) for a in range(h.n))


def check_k(pattern: str, k: int) -> None:
    """Refuse a k that pattern ``pattern`` cannot search for, before any
    search: ValueError below its least k, CapExceeded above the clique cap."""
    if k < K_LEAST[pattern]:
        raise ValueError("k must be at least %d" % K_LEAST[pattern])
    if k > CLIQUE_MAX_K:
        raise CapExceeded("clique search supports k <= %d" % CLIQUE_MAX_K)


def find_clique3(h: Hypergraph3, k: int) -> Witness | None:
    """Least vertex set of size k all of whose triples are edges."""
    check_k("clique", k)

    def narrow(chosen: list[int], v: int, above: int) -> int:
        for u in chosen:
            above &= h.link_row(u, v)
            if not above:
                break
        return above

    clique = _least_clique((1 << h.n) - 1, k, narrow)
    return None if clique is None else Witness("clique3", clique)


def find_sk(h: Hypergraph3, k: int) -> Witness | None:
    """Least apex star: a vertex whose link graph contains a k-clique."""
    check_k("sk", k)
    return _least_apex(h, "sk", lambda a, link: (find_clique_graph(link, k),))


def find_f4(h: Hypergraph4) -> Witness | None:
    """Least pair whose link graph contains a triangle: three 4-edges on six
    vertices, all through one pair."""
    for u in range(h.n):
        for v in range(u + 1, h.n):
            rows = h.pair_rows(u, v)
            tri = find_triangle_graph(Graph(h.n, rows))
            if tri is not None:
                return Witness("f4", (u, v) + tri)
    return None


def embed_small(pattern: Hypergraph3, host: Hypergraph3,
                ordered: bool = False) -> tuple[int, ...] | None:
    """Injective embedding of a small 3-uniform pattern into a host, mapping
    pattern edges onto host edges (non-edges are unconstrained).  Ordered
    mode requires the map to preserve the vertex order.
    """
    f = pattern.n
    if f > EMBED_MAX_PATTERN:
        raise CapExceeded("pattern embedder supports up to %d vertices" % EMBED_MAX_PATTERN)
    n = host.n
    if f > n:
        return None
    full = (1 << n) - 1
    edges = pattern.edges()
    if ordered:
        order = list(range(f))
    else:
        degree = [0] * f
        for e in edges:
            for v in e:
                degree[v] += 1
        order = sorted(range(f), key=lambda v: (-degree[v], v))
    placed_at = {v: t for t, v in enumerate(order)}
    # for each placement step, the pattern pairs already placed inside an edge
    # with the new vertex, expressed in step indices
    constraints: list[list[tuple[int, int]]] = [[] for _ in range(f)]
    for x, y, z in edges:
        sx, sy, sz = sorted((placed_at[x], placed_at[y], placed_at[z]))
        constraints[sz].append((sx, sy))
    image: list[int] = []

    def extend(step: int, used: int) -> bool:
        if step == f:
            return True
        cand = full & ~used
        if ordered and step:
            prev = image[step - 1]
            cand &= full >> (prev + 1) << (prev + 1)
        for sx, sy in constraints[step]:
            cand &= host.link_row(image[sx], image[sy])
            if not cand:
                return False
        for v in iter_bits(cand):
            image.append(v)
            if extend(step + 1, used | 1 << v):
                return True
            image.pop()
        return False

    if not extend(0, 0):
        return None
    result = [0] * f
    for t, v in enumerate(order):
        result[v] = image[t]
    return tuple(result)


class VanishingWitness(namedtuple("VanishingWitness", "order colours")):
    """An enumeration of the pattern's vertices plus a pair colouring, sorted
    vertex pair -> colour index (0 red, 1 blue, 2 green), under which every
    edge reads (red, blue, green) along the order."""

    __slots__ = ()


def check_vanishing_condition(pattern: Hypergraph3) -> VanishingWitness | None:
    """Search all vertex enumerations for one whose forced three-colouring of
    the covered pairs is conflict-free.

    Each edge, read along the enumeration, forces red on its first pair,
    blue on its second and green on its third, so a single pass per
    enumeration decides it; uncovered pairs default to red.
    """
    f = pattern.n
    if f > VANISHING_MAX_VERTICES:
        raise CapExceeded("vanishing-condition search supports up to %d vertices"
                          % VANISHING_MAX_VERTICES)
    edges = pattern.edges()
    for perm in permutations(range(f)):
        position = {v: i for i, v in enumerate(perm)}
        # (pair, colour) for the red, blue and green pair of every edge
        forced = [(tuple(sorted(pair)), colour) for edge in edges
                  for colour, pair in enumerate(
                      combinations(sorted(edge, key=position.__getitem__), 2))]
        colours = dict(forced)
        if all(colours[pair] == colour for pair, colour in forced):
            for pair in combinations(range(f), 2):
                colours.setdefault(pair, 0)
            return VanishingWitness(perm, colours)
    return None


def verify_vanishing(pattern: Hypergraph3, witness: VanishingWitness) -> bool:
    """Independent re-check of a vanishing-condition witness."""
    position = {v: i for i, v in enumerate(witness.order)}
    for edge in pattern.edges():
        a, b, c = sorted(edge, key=position.__getitem__)
        want = (((a, b), 0), ((a, c), 1), ((b, c), 2))
        for (u, v), colour in want:
            key = (u, v) if u < v else (v, u)
            if witness.colours.get(key) != colour:
                return False
    return True


class LinkColouringReport(namedtuple("LinkColouringReport",
                                     "apex classes independent violations")):
    """Partition of the non-apex vertices into independent classes of the
    apex's link graph, built from the generating pair colouring."""

    __slots__ = ()


def link_colouring_witness(h: Hypergraph3, apex: int) -> LinkColouringReport:
    """Classes pairing each colour's earlier neighbours with the cyclically
    next colour's later neighbours; each class is checked independent in the
    apex link graph."""
    colouring = h.colouring
    if colouring is None:
        raise ValueError("hypergraph carries no pair-colouring metadata")
    if not 0 <= apex < h.n:
        raise ValueError("apex out of range")
    kc = colouring.num_colours
    below = (1 << apex) - 1
    above = ((1 << h.n) - 1) >> (apex + 1) << (apex + 1)
    link = h.link_graph(apex)
    classes = []
    violations = []
    for i in range(kc):
        mask = (colouring.colour_mask(apex, i) & below) | \
               (colouring.colour_mask(apex, (i + 1) % kc) & above)
        classes.append(tuple(iter_bits(mask)))
        for x in iter_bits(mask):
            bad = link.rows[x] & mask & ~((1 << (x + 1)) - 1)
            for y in iter_bits(bad):
                violations.append((i, x, y))
    return LinkColouringReport(apex, tuple(classes), not violations,
                               tuple(violations))


def is_linear(pattern: Hypergraph3) -> bool:
    """True when every two edges share at most one vertex."""
    edges = [set(e) for e in pattern.edges()]
    return all(len(e1 & e2) <= 1
               for e1, e2 in combinations(edges, 2))


def three_edge_isomorphism_types() -> list[Hypergraph3]:
    """All isomorphism types of 3-uniform hypergraphs with exactly three
    edges, each on a compacted vertex set 0..f-1.

    A vertex is told apart only by which edges hold it, so once the edges are
    put in an order, the number of vertices in each Venn region of the three
    edges fixes the hypergraph up to relabelling: an isomorphism maps each
    region onto the region of the image edges, and matching region sizes
    give one, region by region.  The least over the 3! orders of the sorted
    membership vectors is therefore a complete invariant.  Each type is the
    first of its class in sorted order.
    """
    first = (0, 1, 2)

    def extensions(existing: int) -> Iterator[tuple[int, ...]]:
        for keep in range(4):
            fresh = tuple(range(existing, existing + 3 - keep))
            for old in combinations(range(existing), keep):
                yield tuple(sorted(old + fresh))

    raw = set()
    for second in extensions(3):
        if second == first:
            continue
        used = max(3, max(second) + 1)
        for third in extensions(used):
            if third in (first, second):
                continue
            edges = tuple(sorted((first, second, third)))
            verts = sorted({v for e in edges for v in e})
            relabel = {v: i for i, v in enumerate(verts)}
            edges = tuple(sorted(tuple(sorted(relabel[v] for v in e)) for e in edges))
            raw.add(edges)

    types: dict[tuple, tuple] = {}
    for edges in sorted(raw):
        verts = {v for e in edges for v in e}
        key = min(tuple(sorted(tuple(v in e for e in order) for v in verts))
                  for order in permutations(edges))
        types.setdefault(key, edges)
    return [Hypergraph3.from_edges(max(map(max, edges)) + 1, edges)
            for edges in types.values()]
