"""Hypergraph data model: 3- and 4-uniform hypergraphs on ordered vertices.

Vertices are always the integers 0..n-1 carrying their natural order.  Triple
and quadruple membership is held in per-pair bitset rows (Python ints), which
make link lookups, subset counting and pattern scans cheap; sorted edge lists
are derived lazily from the rows rather than stored.  All objects are treated
as immutable once constructed.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator

N3_CAP = 4096
N4_CAP = 512


class CapExceeded(Exception):
    """A requested exact computation or size exceeds its configured cap."""


class ParseError(ValueError):
    """Malformed serialized input; message carries a 1-based line number."""


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of a nonnegative int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def vertex_mask(vertices: Iterable[int] | int, n: int) -> int:
    """Pack a vertex collection into a bitmask, checking the range [0, n)."""
    if isinstance(vertices, int):
        if vertices < 0 or vertices >> n:
            raise ValueError("vertex mask out of range for n=%d" % n)
        return vertices
    mask = 0
    for v in vertices:
        if not 0 <= v < n:
            raise ValueError("vertex %r out of range [0, %d)" % (v, n))
        mask |= 1 << v
    return mask


def row_bytes(rows: Iterable[int], width: int) -> bytes:
    """``rows`` little-endian, each padded to ``width`` bytes, one after
    another: the layout of every packed view of link rows."""
    return b"".join(r.to_bytes(width, "little") for r in rows)


def pack_rows(rows: Iterable[int], width: int) -> int:
    """One int holding ``rows[x]`` at bit ``8 * width * x``."""
    return int.from_bytes(row_bytes(rows, width), "little")


def probe(outer: int, inner: int, width: int) -> int:
    """``inner`` at the offset of each member x of the mask ``outer``: ANDed
    with ``pack_rows(rows, width)`` it keeps ``rows[x] & inner`` for every x
    in ``outer``, so one ``bit_count`` sums them."""
    return pack_rows((inner if outer >> x & 1 else 0 for x in range(outer.bit_length())),
                     width)


def _pair_base(n: int) -> list[int]:
    # base[u] + (v - u - 1) indexes the unordered pair {u < v} in a flat list
    base = [0] * n
    for u in range(1, n):
        base[u] = base[u - 1] + n - u
    return base


class Graph:
    """Simple undirected graph on 0..n-1 with bitmask adjacency rows."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: list[int] | None = None):
        self.n = n
        self.rows = rows if rows is not None else [0] * n

    def add_edge(self, u: int, v: int) -> None:
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError("bad edge (%r, %r)" % (u, v))
        self.rows[u] |= 1 << v
        self.rows[v] |= 1 << u

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2


@dataclass(frozen=True)
class DensityReport:
    """Edge count and edge density relative to all C(n, arity) slots."""

    edge_count: int
    slots: int
    density_fraction: Fraction
    density: float

    @classmethod
    def of(cls, edge_count: int, n: int, arity: int) -> "DensityReport":
        slots = math.comb(n, arity)
        frac = Fraction(edge_count, slots) if slots else Fraction(0)
        return cls(edge_count, slots, frac, float(frac))


class Hypergraph3:
    """A 3-uniform hypergraph backed by per-pair link rows.

    ``link_row(u, v)`` is the bitmask of vertices w with {u, v, w} an edge.
    The sorted edge list is derived from the rows on demand.
    """

    __slots__ = ("n", "_rows", "_base", "edge_count", "colouring", "orientation", "_packed")

    def __init__(self, n: int, rows: list[int], colouring=None, orientation=None):
        if not 0 <= n <= N3_CAP:
            raise ValueError("n=%d outside supported range [0, %d]" % (n, N3_CAP))
        if len(rows) != n * (n - 1) // 2:
            raise ValueError("expected %d link rows, got %d" % (n * (n - 1) // 2, len(rows)))
        self.n = n
        self._rows = rows
        self._base = _pair_base(n)
        bits = sum(r.bit_count() for r in rows)
        if bits % 3:
            raise ValueError("inconsistent link rows: total bit count not divisible by 3")
        self.edge_count = bits // 3
        self.colouring = colouring
        self.orientation = orientation
        self._packed: list[int] | None = None

    @classmethod
    def empty(cls, n: int) -> "Hypergraph3":
        return cls(n, [0] * (n * (n - 1) // 2))

    @classmethod
    def complete(cls, n: int) -> "Hypergraph3":
        full = (1 << n) - 1
        rows = []
        for u in range(n):
            for v in range(u + 1, n):
                rows.append(full & ~(1 << u) & ~(1 << v))
        return cls(n, rows)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Iterable[int]]) -> "Hypergraph3":
        if not 0 <= n <= N3_CAP:
            raise ValueError("n=%d outside supported range [0, %d]" % (n, N3_CAP))
        base = _pair_base(n)
        rows = [0] * (n * (n - 1) // 2)
        for edge in edges:
            x, y, z = triple = tuple(sorted(edge))
            if x == y or y == z:
                raise ValueError("edge %r has repeated vertices" % (triple,))
            if x < 0 or z >= n:
                raise ValueError("edge %r out of range [0, %d)" % (triple, n))
            if rows[base[x] + y - x - 1] >> z & 1:
                raise ValueError("duplicate edge %r" % (triple,))
            rows[base[x] + y - x - 1] |= 1 << z
            rows[base[x] + z - x - 1] |= 1 << y
            rows[base[y] + z - y - 1] |= 1 << x
        return cls(n, rows)

    def link_row(self, u: int, v: int) -> int:
        """Bitmask of vertices completing an edge with the pair {u, v}."""
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError("bad pair (%r, %r)" % (u, v))
        if u > v:
            u, v = v, u
        return self._rows[self._base[u] + v - u - 1]

    def link_rows(self, v: int) -> list[int]:
        """``link_row(v, w)`` for every w, indexed by w, with 0 at w = v."""
        if not 0 <= v < self.n:
            raise ValueError("vertex %r out of range" % v)
        rows, base = self._rows, self._base
        return ([rows[base[w] + v - w - 1] for w in range(v)] + [0]
                + rows[base[v]:base[v] + self.n - v - 1])

    def has_edge(self, x: int, y: int, z: int) -> bool:
        return bool(self.link_row(x, y) >> z & 1)

    def iter_edges(self) -> Iterator[tuple[int, int, int]]:
        """Edges as sorted triples, in lexicographic order."""
        base = self._base
        for u in range(self.n):
            for v in range(u + 1, self.n):
                row = self._rows[base[u] + v - u - 1] >> (v + 1) << (v + 1)
                for w in iter_bits(row):
                    yield (u, v, w)

    def edges(self) -> list[tuple[int, int, int]]:
        return list(self.iter_edges())

    def density(self) -> DensityReport:
        return DensityReport.of(self.edge_count, self.n, 3)

    def _packed_links(self) -> list[int]:
        """``pack_rows(link_rows(v), (n + 7) // 8)`` for every vertex v, built
        on first use and kept, as the rows never change: n^3 / 8 bytes."""
        if self._packed is None:
            w = (self.n + 7) // 8
            self._packed = [pack_rows(self.link_rows(v), w) for v in range(self.n)]
        return self._packed

    def pair_counts(self, a: int, b: int) -> list[int]:
        """For every vertex v, the ordered pairs in A x B (vertex masks) that
        complete an edge with v: one AND per vertex."""
        pairs = probe(a, b, (self.n + 7) // 8)
        return [(row & pairs).bit_count() for row in self._packed_links()]

    def count_ordered_triples(self, xs, ys, zs) -> int:
        """Ordered (x, y, z) in X x Y x Z with {x, y, z} an edge: one AND per
        x in X, as in ``pair_counts(Y, Z)``."""
        xmask = vertex_mask(xs, self.n)
        ymask = vertex_mask(ys, self.n)
        zmask = vertex_mask(zs, self.n)
        packed = self._packed_links()
        pairs = probe(ymask, zmask, (self.n + 7) // 8)
        return sum((packed[x] & pairs).bit_count() for x in iter_bits(xmask))

    def link_graph(self, a: int) -> Graph:
        """Graph on the other vertices whose edges complete hyperedges with a."""
        return Graph(self.n, self.link_rows(a))


class Hypergraph4:
    """A 4-uniform hypergraph backed by per-pair link graphs.

    ``pair_rows(u, v)[x]`` is the bitmask of vertices y with {u, v, x, y} an
    edge, so each pair carries the adjacency rows of its link graph.  The
    rows are the source of truth; ``count_ordered_quadruples`` derives a
    packed view of them.
    """

    __slots__ = ("n", "_rows", "_base", "edge_count", "orientation", "_packed")

    def __init__(self, n: int, rows: list[list[int]], orientation=None):
        if not 0 <= n <= N4_CAP:
            raise ValueError("n=%d outside supported range [0, %d]" % (n, N4_CAP))
        if len(rows) != n * (n - 1) // 2:
            raise ValueError("expected %d pair rows" % (n * (n - 1) // 2))
        self.n = n
        self._rows = rows
        self._base = _pair_base(n)
        bits = sum(r.bit_count() for pair in rows for r in pair)
        if bits % 12:
            raise ValueError("inconsistent pair rows: total bit count not divisible by 12")
        self.edge_count = bits // 12
        self.orientation = orientation
        self._packed: list[int] | None = None

    @classmethod
    def empty(cls, n: int) -> "Hypergraph4":
        return cls(n, [[0] * n for _ in range(n * (n - 1) // 2)])

    @classmethod
    def complete(cls, n: int) -> "Hypergraph4":
        full = (1 << n) - 1
        rows = []
        for u in range(n):
            for v in range(u + 1, n):
                other = full & ~(1 << u) & ~(1 << v)
                pair = [other & ~(1 << x) if other >> x & 1 else 0 for x in range(n)]
                rows.append(pair)
        return cls(n, rows)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Iterable[int]]) -> "Hypergraph4":
        if not 0 <= n <= N4_CAP:
            raise ValueError("n=%d outside supported range [0, %d]" % (n, N4_CAP))
        base = _pair_base(n)
        rows = [[0] * n for _ in range(n * (n - 1) // 2)]
        for edge in edges:
            quad = tuple(sorted(edge))
            if len(set(quad)) != 4:
                raise ValueError("edge %r must have 4 distinct vertices" % (tuple(edge),))
            if quad[0] < 0 or quad[3] >= n:
                raise ValueError("edge %r out of range [0, %d)" % (quad, n))
            a, b, c, d = quad
            if rows[base[a] + b - a - 1][c] >> d & 1:
                raise ValueError("duplicate edge %r" % (quad,))
            for (u, v), (x, y) in (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c)),
                                   ((b, c), (a, d)), ((b, d), (a, c)), ((c, d), (a, b))):
                pair = rows[base[u] + v - u - 1]
                pair[x] |= 1 << y
                pair[y] |= 1 << x
        return cls(n, rows)

    def pair_rows(self, u: int, v: int) -> list[int]:
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError("bad pair (%r, %r)" % (u, v))
        if u > v:
            u, v = v, u
        return self._rows[self._base[u] + v - u - 1]

    def has_edge(self, a: int, b: int, c: int, d: int) -> bool:
        return bool(self.pair_rows(a, b)[c] >> d & 1)

    def iter_edges(self) -> Iterator[tuple[int, int, int, int]]:
        """Edges as sorted quadruples, in lexicographic order."""
        for a in range(self.n):
            for b in range(a + 1, self.n):
                pair = self.pair_rows(a, b)
                for c in range(b + 1, self.n):
                    row = pair[c] >> (c + 1) << (c + 1)
                    for d in iter_bits(row):
                        yield (a, b, c, d)

    def edges(self) -> list[tuple[int, int, int, int]]:
        return list(self.iter_edges())

    def density(self) -> DensityReport:
        return DensityReport.of(self.edge_count, self.n, 4)

    def count_ordered_quadruples(self, u1, u2, u3, u4) -> int:
        """Ordered tuples in U1 x U2 x U3 x U4 whose vertex set is an edge.

        One AND per pair (a, b) of its packed link graph rows, built on first
        use and kept as the rows never change, with a probe that holds U4 at
        the offset of each x in U3."""
        m1 = vertex_mask(u1, self.n)
        m2 = vertex_mask(u2, self.n)
        m3 = vertex_mask(u3, self.n)
        m4 = vertex_mask(u4, self.n)
        w = (self.n + 7) // 8
        if self._packed is None:
            self._packed = [pack_rows(pair, w) for pair in self._rows]
        packed = self._packed
        pairs = probe(m3, m4, w)
        base = self._base
        seconds = list(iter_bits(m2))
        total = 0
        for a in iter_bits(m1):
            above = base[a] - a - 1
            for b in seconds:
                if b > a:
                    total += (packed[above + b] & pairs).bit_count()
                elif b < a:
                    total += (packed[base[b] + a - b - 1] & pairs).bit_count()
        return total


def write_hypergraph(h: Hypergraph3 | Hypergraph4) -> str:
    """Serialize to the text format: "<arity> <n> <m>" then sorted edge lines."""
    n, rows, base = h.n, h._rows, h._base
    names = [str(v) for v in range(n)]
    if isinstance(h, Hypergraph3):
        lines = ["3 %d %d" % (n, h.edge_count)]
        for u in range(n):
            for v in range(u + 1, n):
                row = rows[base[u] + v - u - 1] >> (v + 1) << (v + 1)
                if row:
                    prefix = "%d %d " % (u, v)
                    lines.extend([prefix + names[w] for w in iter_bits(row)])
    else:
        lines = ["4 %d %d" % (n, h.edge_count)]
        for a in range(n):
            for b in range(a + 1, n):
                pair = rows[base[a] + b - a - 1]
                for c in range(b + 1, n):
                    row = pair[c] >> (c + 1) << (c + 1)
                    if row:
                        prefix = "%d %d %d " % (a, b, c)
                        lines.extend([prefix + names[d] for d in iter_bits(row)])
    return "\n".join(lines) + "\n"


# Canonical layout: single spaces, LF after every line, no leading zeros.  The
# rewrites to it keep every line break, open with a literal, and return
# canonical text itself rather than a copy.
_SPACES = re.compile(r"  +")
_ZEROS_AFTER_SPACE = re.compile(r" 0+(?=[0-9])")
_ZEROS_AFTER_LF = re.compile(r"\n0+(?=[0-9])")
_INTEGER = re.compile(r"-?[0-9]+")
_CANONICAL_BLOCK = {3: re.compile(r"(?:[0-9]+ [0-9]+ [0-9]+\n)*"),
                    4: re.compile(r"(?:[0-9]+ [0-9]+ [0-9]+ [0-9]+\n)*")}
# characters of body per block: a few thousand lines, so neither the regex's
# backtracking stack nor the token list grows with the file
_BLOCK_CHARS = 1 << 16


def _block_error(block: str, line: int, arity: int, names: dict[str, int],
                 prev: tuple[int, ...]) -> ParseError:
    """The error of the first bad line of a block the bulk pass refused;
    ``line`` numbers its first line, ``names`` maps each vertex id to its
    vertex and ``prev`` is the edge before the block."""
    for i, text in enumerate(block.split("\n")[:-1], start=line):
        parts = text.split(" ") if text else []
        if len(parts) != arity:
            return ParseError("line %d: expected %d vertices" % (i, arity))
        if not all(map(_INTEGER.fullmatch, parts)):
            return ParseError("line %d: vertices must be integers" % i)
        if not all(p in names for p in parts):
            return ParseError("line %d: vertex out of range [0, %d)" % (i, len(names)))
        edge = tuple(names[p] for p in parts)
        if any(edge[j] >= edge[j + 1] for j in range(arity - 1)):
            return ParseError("line %d: vertices must be strictly increasing" % i)
        if edge <= prev:
            if edge == prev:
                return ParseError("line %d: duplicate edge" % i)
            return ParseError("line %d: edges not sorted lexicographically" % i)
        prev = edge
    raise AssertionError("refused block has no bad line")


def read_hypergraph(text: str) -> Hypergraph3 | Hypergraph4:
    """Parse the text format; raises ParseError with a 1-based line number.

    Fields may be separated by runs of spaces and tabs, lines may end in LF,
    CRLF or CR, and vertex ids may carry leading zeros: rewriting those to
    canonical layout first leaves one bulk pass, which checks and parses a
    block of lines at a time and names an error from the block it is in."""
    # each rewrite runs only on text holding its literal, so canonical text
    # skips all but the "\n0" one, which an edge starting at vertex 0 holds
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if "\t" in text:
        text = text.replace("\t", " ")
    if not text.endswith("\n"):
        text += "\n"
    if "  " in text:
        text = _SPACES.sub(" ", text)
    text = text.replace(" \n", "\n").replace("\n ", "\n")
    head = text[:text.index("\n")].lstrip(" ")
    if not head:
        raise ParseError("line 1: missing header")
    fields = head.split(" ")
    if len(fields) != 3:
        raise ParseError("line 1: header must be '<arity> <n> <m>'")
    try:
        if not all(map(_INTEGER.fullmatch, fields)):
            raise ValueError
        arity, n, m = map(int, fields)  # ValueError past the digit limit
    except ValueError:
        raise ParseError("line 1: header fields must be integers") from None
    if arity not in (3, 4):
        raise ParseError("line 1: unsupported arity %d" % arity)
    if "-" in head:  # a sign on n or m, as the arity is 3 or 4
        raise ParseError("line 1: negative n or m")
    lines = text.count("\n")
    if lines != m + 1:
        raise ParseError("line %d: expected %d edge lines, found %d"
                         % (lines + 1, m, lines - 1))
    cap = N3_CAP if arity == 3 else N4_CAP
    if n > cap:
        raise ValueError("n=%d outside supported range [0, %d]" % (n, cap))
    if " 0" in text:
        text = _ZEROS_AFTER_SPACE.sub(" ", text)
    if "\n0" in text:
        text = _ZEROS_AFTER_LF.sub("\n", text)
    pos, size = text.index("\n") + 1, len(text)
    block_re = _CANONICAL_BLOCK[arity]
    # looking names up both converts and range-checks
    names = {str(v): v for v in range(n)}
    base = _pair_base(n)
    bit = [1 << v for v in range(n)]
    if arity == 3:
        rows = [0] * (n * (n - 1) // 2)
    else:
        rows = [[0] * n for _ in range(n * (n - 1) // 2)]
    prev: tuple[int, ...] = (-1,)
    while pos < size:
        end = text.find("\n", pos + _BLOCK_CHARS) + 1 or size
        block = text[pos:end]
        try:
            if block_re.fullmatch(block) is None:
                raise KeyError
            vals = list(map(names.__getitem__, block.split()))
            cols = [vals[j::arity] for j in range(arity)]
            if not all(all(map(operator.lt, cols[j], cols[j + 1])) for j in range(arity - 1)):
                raise KeyError
            edges = list(zip(*cols))
            if not (prev < edges[0] and all(map(operator.lt, edges, islice(edges, 1, None)))):
                raise KeyError
        except KeyError:  # every refusal: the block's lines name the error
            line = text.count("\n", 0, pos) + 1
            raise _block_error(block, line, arity, names, prev) from None
        prev = edges[-1]
        pos = end
        if arity == 3:
            for x, y, z in edges:
                rows[base[x] + y - x - 1] |= bit[z]
                rows[base[x] + z - x - 1] |= bit[y]
                rows[base[y] + z - y - 1] |= bit[x]
        else:
            # the six pairs of each edge, unrolled
            for a, b, c, d in edges:
                above_a, above_b = base[a] - a - 1, base[b] - b - 1
                pair = rows[above_a + b]
                pair[c] |= bit[d]
                pair[d] |= bit[c]
                pair = rows[above_a + c]
                pair[b] |= bit[d]
                pair[d] |= bit[b]
                pair = rows[above_a + d]
                pair[b] |= bit[c]
                pair[c] |= bit[b]
                pair = rows[above_b + c]
                pair[a] |= bit[d]
                pair[d] |= bit[a]
                pair = rows[above_b + d]
                pair[a] |= bit[c]
                pair[c] |= bit[a]
                pair = rows[base[c] + d - c - 1]
                pair[a] |= bit[b]
                pair[b] |= bit[a]
    return Hypergraph3(n, rows) if arity == 3 else Hypergraph4(n, rows)
