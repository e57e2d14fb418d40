"""Hypergraph data model: 3- and 4-uniform hypergraphs on ordered vertices.

Vertices are always the integers 0..n-1 carrying their natural order.  Triple
and quadruple membership is held in per-pair bitset rows (Python ints), which
make link lookups, subset counting and pattern scans cheap; sorted edge lists
are derived lazily from the rows rather than stored.  All objects are treated
as immutable once constructed.

It also holds what every command parses with, so that parsing executes no
other module: the density reader and the limits of each construction.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from array import array
from collections import namedtuple
from fractions import Fraction
from itertools import chain, combinations, islice
from typing import Iterable, Iterator

N3_CAP = 4096
N4_CAP = 512


class CapExceeded(Exception):
    """A requested exact computation or size exceeds its configured cap."""


class ParseError(ValueError):
    """Malformed serialized input; message carries a 1-based line number."""


def _as_fraction(value, default: Fraction) -> Fraction:
    """``value`` as a fraction in [0, 1] (a float to nine digits of its
    denominator), or ``default`` when it is None."""
    if value is None:
        return default
    if not isinstance(value, (Fraction, int, str, float)):
        raise ValueError("cannot interpret %r as a density" % (value,))
    try:
        d = Fraction(value)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (value,)) from None
    if isinstance(value, float):
        d = d.limit_denominator(10 ** 9)
    if not 0 <= d <= 1:
        raise ValueError("%s is outside [0, 1]" % (value,))
    return d


# largest k of the colouring-kk and sk-free pattern tables of constructions,
# which grow as k^3: at k = 64 they hold about 235,000 patterns, traced at
# 23 MB and built in 0.3 s (colouring-kk) and 1.2 s (sk-free) of CPU on a
# 2-vCPU Xeon VM; at k = 100, 0.94M patterns take 93 MB
PATTERN_K_CAP = 64
# construction -> (arity, least n, least k, or None where k is not read); the
# greatest n is the cap of its arity
LIMITS = {
    "tournament3": (3, 4, None),
    "colouring-kk": (3, 0, 3),
    "party6": (3, 0, None),
    "rainbow27": (3, 0, None),
    "sk-free": (3, 0, 4),
    "oriented4": (4, 5, None),
    "leader-tan": (4, 5, None),
}

# family -> task -> (module, function, its input, the options it reads, "!"
# marking each one it needs); the input is 3 or 4 for a hypergraph of that
# arity, "mp" for multipartite text, "block" or "aux" for a tripartite block or
# an auxiliary system in JSON, None for none; a task with a mode reads seed
# only in search mode
TASKS = {
    "certify": {
        "weak": ("certifiers", "weak_deviation", 3, "d mode seed restarts"),
        "xyz": ("certifiers", "xyz_deviation", 3, "d samples seed disjoint"),
        "pair": ("certifiers", "pair_deviation", 3, "d mode seed restarts"),
        "quad": ("certifiers", "quad_vertex_deviation", 4, "d samples seed"),
        "bipartite": ("certifiers", "bipartite_regularity_deviation", "mp", "d mode seed"),
    },
    "detect": {
        "k4minus": ("detectors", "find_k4_minus", 3, "ordered count"),
        "clique": ("detectors", "find_clique3", 3, "k!"),
        "sk": ("detectors", "find_sk", 3, "k!"),
        "f4": ("detectors", "find_f4", 4, ""),
        "custom": ("detectors", "embed_small", 3, "pattern_file! ordered"),
        "vanishing": ("detectors", "check_vanishing_condition", 3, ""),
    },
    "multipartite": {
        "profile": ("multipartite", "mean_square_profile", "mp", "in! epsilon report"),
        "triangle": ("multipartite", "find_triangle_mp", "mp", "in! report"),
        "halfsplit": ("multipartite", "half_split", None, "m! s! out"),
        "diagnostics": ("multipartite", "proof_diagnostics", "mp", "in! delta! epsilon report"),
        "project": ("multipartite", "project_auxiliary", "block", "in! epsilon report"),
        "threetriples": ("multipartite", "find_three_triples", "aux", "in! report"),
        "explore": ("multipartite", "explore_extremal", None,
                    "m! s! epsilon restarts seed out report"),
    },
}


def task_options(family: str, name: str, given: dict, defaults: dict, flag=str) -> dict:
    """The options task ``name`` of ``family`` runs with: ``given`` over the
    ``defaults`` it reads.  Refuses, naming each by ``flag(option)``, any given
    option it does not read and any needed one that is missing."""
    reads = TASKS[family][name][3].split()
    exact = "mode" in reads and given.get("mode", defaults.get("mode")) == "exact"
    known = [option.rstrip("!") for option in reads if not (exact and option == "seed")]
    unread = [flag(option) for option in given if option not in known]
    if unread:
        raise ValueError("%s%s does not read %s"
                         % (name, " in exact mode" * exact, ", ".join(unread)))
    options = {**{option: defaults[option] for option in known if option in defaults}, **given}
    missing = [flag(option[:-1]) for option in reads
               if option.endswith("!") and option[:-1] not in options]
    if missing:
        raise ValueError("%s needs %s" % (name, " and ".join(missing)))
    return options


def task_function(family: str, name: str):
    """The function task ``name`` of ``family`` runs, looked up on its module
    at call time, which executes the module on first use."""
    module, function = TASKS[family][name][:2]
    return getattr(sys.modules["%s.%s" % (__package__, module)], function)


def check_construction(name: str, n: int, k: int | None) -> None:
    """Refuse an (n, k) that construction ``name`` cannot build, before any
    of it is built: CapExceeded for a k above ``PATTERN_K_CAP``, ValueError
    for any other k or n out of range, for a k that is not an integer and for
    any k where the construction reads none."""
    uniform, least, k_least = LIMITS[name]
    most = N3_CAP if uniform == 3 else N4_CAP
    if not least <= n <= most:
        raise ValueError("n=%d outside [%d, %d]" % (n, least, most))
    if k is not None and type(k) is not int:
        raise ValueError("k must be an integer, not %r" % (k,))
    if k_least is None:
        if k is not None:
            raise ValueError("construction %r takes no k" % name)
        return
    if k is None:
        raise ValueError("construction %r requires k" % name)
    if k < k_least:
        raise ValueError("k must be at least %d" % k_least)
    if k > PATTERN_K_CAP:
        raise CapExceeded("pattern table refused for k=%d > cap %d" % (k, PATTERN_K_CAP))


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


# unpacked, byte i of a field of at most 8 bytes sits in byte _PLACES[i] of
# an 8-byte native slot, the other bytes staying 0
_PLACES = [i if sys.byteorder == "little" else 7 - i for i in range(8)]


def pack_rows(rows: Iterable[int], width: int) -> int:
    """One int holding ``rows[x]``, in [0, 2^(8 width)), at bit ``8 * width * x``;
    rows of at most 8 bytes pass through native 8-byte slots."""
    if width > 8:
        return int.from_bytes(row_bytes(rows, width), "little")
    raw = array("Q", rows).tobytes()
    fields = bytearray(width * (len(raw) >> 3))
    for i in range(width):
        fields[i::width] = raw[_PLACES[i]::8]
    return int.from_bytes(fields, "little")


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

    def _check(self, u: int, v: int) -> None:
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError("bad edge (%r, %r)" % (u, v))

    def add_edge(self, u: int, v: int) -> None:
        self._check(u, v)
        self.rows[u] |= 1 << v
        self.rows[v] |= 1 << u

    def has_edge(self, u: int, v: int) -> bool:
        self._check(u, v)
        return bool(self.rows[u] >> v & 1)

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2


class DensityReport(namedtuple("DensityReport", "edge_count slots density_fraction density")):
    """Edge count and edge density relative to all C(n, arity) slots."""

    __slots__ = ()

    @classmethod
    def of(cls, edge_count: int, n: int, arity: int) -> "DensityReport":
        slots = math.comb(n, arity)
        frac = Fraction(edge_count, slots) if slots else Fraction(0)
        return cls(edge_count, slots, frac, float(frac))


class _PairRows:
    """Both arities: one row per pair {u < v}, at ``_rows[_base[u] + v - u - 1]``,
    holding the link of the pair.  Each subclass sets its ``arity``, the
    ``cap`` on n, and ``_BITS``, the bits an edge sets over the rows.  A
    construction keeps the ``colouring`` or ``orientation`` it was built from."""

    __slots__ = ("n", "_rows", "_base", "edge_count", "colouring", "orientation",
                 "_packed")

    def __init__(self, n: int, rows: list, colouring=None, orientation=None):
        self._check_n(n)
        if len(rows) != n * (n - 1) // 2:
            raise ValueError("expected %d pair rows, got %d" % (n * (n - 1) // 2, len(rows)))
        self.n = n
        self._rows = rows
        self._base = _pair_base(n)
        bits = sum(map(int.bit_count, rows if self.arity == 3 else chain.from_iterable(rows)))
        if bits % self._BITS:
            raise ValueError("pair rows hold %d bits, not a multiple of %d" % (bits, self._BITS))
        self.edge_count = bits // self._BITS
        self.colouring = colouring
        self.orientation = orientation
        self._packed: list[int] | None = None

    @classmethod
    def _check_n(cls, n: int) -> None:
        if not 0 <= n <= cls.cap:
            raise ValueError("n=%d outside supported range [0, %d]" % (n, cls.cap))

    @classmethod
    def _blank_rows(cls, n: int) -> list:
        size = n * (n - 1) // 2
        return [0] * size if cls.arity == 3 else [[0] * n for _ in range(size)]

    @classmethod
    def empty(cls, n: int):
        return cls.from_edges(n, ())

    @classmethod
    def complete(cls, n: int):
        return cls.from_edges(n, combinations(range(n), cls.arity))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Iterable[int]]):
        """The hypergraph on 0..n-1 of ``edges``, each given in any vertex
        order; refuses an edge of the wrong size, out of range or repeated."""
        cls._check_n(n)
        rows, base = cls._blank_rows(n), _pair_base(n)
        cls._insert(rows, base, [1 << v for v in range(n)], cls._checked(edges, n, rows, base))
        return cls(n, rows)

    @classmethod
    def _refusal(cls, e: tuple[int, ...], n: int) -> ValueError:
        """Why ``from_edges`` refuses the sorted edge ``e``."""
        if len(e) != cls.arity or len(set(e)) != cls.arity:
            return ValueError("edge %r must have %d distinct vertices" % (e, cls.arity))
        if e[0] < 0 or e[-1] >= n:
            return ValueError("edge %r out of range [0, %d)" % (e, n))
        return ValueError("duplicate edge %r" % (e,))

    def _pair_row(self, u: int, v: int):
        """The row of the pair {u, v}, given in either order."""
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError("bad pair (%r, %r)" % (u, v))
        if u > v:
            u, v = v, u
        return self._rows[self._base[u] + v - u - 1]

    def has_edge(self, *edge: int) -> bool:
        """Whether ``edge``, ``arity`` distinct vertices of 0..n-1 in any
        order, is an edge; refuses any other tuple."""
        if (len(edge) != self.arity or len(set(edge)) != self.arity
                or not all(0 <= v < self.n for v in edge)):
            raise ValueError("bad tuple %r for n=%d" % (edge, self.n))
        row = self._pair_row(edge[0], edge[1])
        if self.arity == 4:
            row = row[edge[2]]
        return bool(row >> edge[-1] & 1)

    def iter_edges(self) -> Iterator[tuple[int, ...]]:
        """Edges as sorted tuples, in lexicographic order."""
        last = [(w,) for w in range(self.n)]
        for prefix, mask in self._walk():
            for w in iter_bits(mask):
                yield prefix + last[w]

    def edges(self) -> list[tuple[int, ...]]:
        return list(self.iter_edges())

    def density(self) -> DensityReport:
        return DensityReport.of(self.edge_count, self.n, self.arity)


class Hypergraph3(_PairRows):
    """A 3-uniform hypergraph: the row of {u, v} is ``link_row(u, v)``, the
    bitmask of vertices w with {u, v, w} an edge."""

    __slots__ = ()
    arity, cap, _BITS = 3, N3_CAP, 3
    link_row = _PairRows._pair_row

    @classmethod
    def _checked(cls, edges, n: int, rows: list[int], base: list[int]):
        """``edges`` as sorted triples, checked against the rows so far."""
        for edge in edges:
            e = tuple(sorted(edge))
            if (len(e) != 3 or not 0 <= e[0] < e[1] < e[2] < n
                    or rows[base[e[0]] + e[1] - e[0] - 1] >> e[2] & 1):
                raise cls._refusal(e, n)
            yield e

    @staticmethod
    def _insert(rows: list[int], base: list[int], bit: list[int], edges) -> None:
        """Add the sorted triples ``edges``, which must be new, to ``rows``."""
        for x, y, z in edges:
            rows[base[x] + y - x - 1] |= bit[z]
            rows[base[x] + z - x - 1] |= bit[y]
            rows[base[y] + z - y - 1] |= bit[x]

    def _walk(self) -> Iterator[tuple[tuple[int, int], int]]:
        """Each pair u < v, in order, with its nonzero mask of w > v making an edge."""
        rows, base, n = self._rows, self._base, self.n
        for u in range(n):
            for v, row in enumerate(rows[base[u]:base[u] + n - u - 1], u + 1):
                row = row >> (v + 1) << (v + 1)
                if row:
                    yield (u, v), row

    def link_rows(self, v: int) -> list[int]:
        """``link_row(v, w)`` for every w, indexed by w, with 0 at w = v."""
        if not 0 <= v < self.n:
            raise ValueError("vertex %r out of range" % v)
        rows, base = self._rows, self._base
        return ([rows[base[w] + v - w - 1] for w in range(v)] + [0]
                + rows[base[v]:base[v] + self.n - v - 1])

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


class Hypergraph4(_PairRows):
    """A 4-uniform hypergraph: the row of {u, v} is ``pair_rows(u, v)``, the
    adjacency rows of its link graph, so ``pair_rows(u, v)[x]`` is the bitmask
    of vertices y with {u, v, x, y} an edge: two bits in each of six pairs."""

    __slots__ = ()
    arity, cap, _BITS = 4, N4_CAP, 12
    pair_rows = _PairRows._pair_row

    @classmethod
    def _checked(cls, edges, n: int, rows: list[list[int]], base: list[int]):
        """``edges`` as sorted quadruples, checked against the rows so far."""
        for edge in edges:
            e = tuple(sorted(edge))
            if (len(e) != 4 or not 0 <= e[0] < e[1] < e[2] < e[3] < n
                    or rows[base[e[0]] + e[1] - e[0] - 1][e[2]] >> e[3] & 1):
                raise cls._refusal(e, n)
            yield e

    @staticmethod
    def _insert(rows: list[list[int]], base: list[int], bit: list[int], edges) -> None:
        """Add the sorted quadruples ``edges``, which must be new, to ``rows``:
        the six pairs of each edge, unrolled."""
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

    def _walk(self) -> Iterator[tuple[tuple[int, int, int], int]]:
        """Each a < b < c, in order, with its nonzero mask of d > c making an edge."""
        rows, base, n = self._rows, self._base, self.n
        for a in range(n):
            for b, pair in enumerate(rows[base[a]:base[a] + n - a - 1], a + 1):
                for c, row in enumerate(pair[b + 1:], b + 1):
                    row = row >> (c + 1) << (c + 1)
                    if row:
                        yield (a, b, c), row

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
    names = [str(v) for v in range(h.n)]
    head = "%d " * (h.arity - 1)
    lines = ["%d %d %d" % (h.arity, h.n, h.edge_count)]
    for prefix, mask in h._walk():
        start = head % prefix
        lines.extend([start + names[w] for w in iter_bits(mask)])
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
    cls = Hypergraph3 if arity == 3 else Hypergraph4
    cls._check_n(n)
    if " 0" in text:
        text = _ZEROS_AFTER_SPACE.sub(" ", text)
    if "\n0" in text:
        text = _ZEROS_AFTER_LF.sub("\n", text)
    pos, size = text.index("\n") + 1, len(text)
    block_re = _CANONICAL_BLOCK[arity]
    # looking names up both converts and range-checks
    names = {str(v): v for v in range(n)}
    base, bit, rows = _pair_base(n), [1 << v for v in range(n)], cls._blank_rows(n)
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
        cls._insert(rows, base, bit, edges)
    return cls(n, rows)
