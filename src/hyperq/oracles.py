"""Deliberately naive reference implementations.

These recompute from scratch what the optimized certifiers and detectors
maintain incrementally; equality of the two routes on small instances is an
acceptance requirement.  None of this code shares logic with the fast paths.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from .core import Hypergraph3, iter_bits
from .multipartite import MultipartiteGraph


def naive_weak_deviation(h: Hypergraph3, d: Fraction) -> tuple[Fraction, tuple]:
    """Max over all vertex subsets of |e(U) - d C(|U|,3)|, recomputing e(U)
    from the edge list for every subset."""
    n = h.n
    edges = [(e, (1 << e[0]) | (1 << e[1]) | (1 << e[2])) for e in h.iter_edges()]
    p, q = d.numerator, d.denominator
    best = -1
    best_mask = 0
    for mask in range(1 << n):
        e_count = sum(1 for _, em in edges if em & mask == em)
        val = abs(e_count * q - p * math.comb(mask.bit_count(), 3))
        if val > best:
            best = val
            best_mask = mask
    return Fraction(best, q), tuple(iter_bits(best_mask))


def enumerate_pair_deviation(h: Hypergraph3, d: Fraction) -> Fraction:
    """Max over all (U, X) of |e(U, X) - d|U||X||, by enumerating every pair
    set X.  Direct enumeration up to 16 pairs; for larger instances the pair
    set splits into halves whose full subset-sum tables combine exactly, so
    all 2^(#pairs) choices of X are still accounted for.  Supports n <= 8.
    """
    n = h.n
    if n > 8:
        raise ValueError("full enumeration oracle supports n <= 8")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    p, q = d.numerator, d.denominator
    best = 0
    for umask in range(1 << n):
        size = umask.bit_count()
        residuals = [(h.link_row(u, v) & umask).bit_count() * q - p * size
                     for u, v in pairs]
        if len(residuals) <= 16:
            lo = hi = 0
            for xmask in range(1 << len(residuals)):
                total = 0
                m = xmask
                idx = 0
                while m:
                    if m & 1:
                        total += residuals[idx]
                    m >>= 1
                    idx += 1
                lo = min(lo, total)
                hi = max(hi, total)
        else:
            half = len(residuals) // 2
            lo = hi = 0
            parts_lo = []
            parts_hi = []
            for chunk in (residuals[:half], residuals[half:]):
                sums = [0]
                for r in chunk:
                    sums += [s + r for s in sums]
                parts_lo.append(min(sums))
                parts_hi.append(max(sums))
            lo = parts_lo[0] + parts_lo[1]
            hi = parts_hi[0] + parts_hi[1]
        best = max(best, hi, -lo)
    return Fraction(best, q)


def naive_count_k4_minus(h: Hypergraph3) -> int:
    """Quadruple loop counting (4-set, apex) pairs where the three triples
    through the apex are all edges."""
    count = 0
    for quad in combinations(range(h.n), 4):
        for apex in quad:
            rest = [v for v in quad if v != apex]
            if all(h.has_edge(apex, a, b) for a, b in combinations(rest, 2)):
                count += 1
    return count


def naive_bipartite_deviation(g: MultipartiteGraph, d2: Fraction,
                              parts: tuple[int, int] = (0, 1)) -> Fraction:
    """Max over all X' x Y' subset pairs of |e(X',Y') - d2|X'||Y'||,
    enumerating both sides in full."""
    i, j = parts
    nx, ny = g.sizes[i], g.sizes[j]
    if nx > 12 or ny > 12:
        raise ValueError("naive double enumeration supports sides <= 12")
    rows = g.part_rows(i, j)
    p, q = d2.numerator, d2.denominator
    best = 0
    for xmask in range(1 << nx):
        xs = list(iter_bits(xmask))
        sx = len(xs)
        for ymask in range(1 << ny):
            e = sum((rows[a] & ymask).bit_count() for a in xs)
            val = abs(e * q - p * sx * ymask.bit_count())
            if val > best:
                best = val
    return Fraction(best, q)


def naive_best_triangle_free_ratio(m: int, s: int) -> Fraction:
    """Largest minimum mean-square degree ratio over every triangle-free
    graph on m parts of s vertices, listing all 2^(C(m,2) s^2) of them.
    A ratio sums deg_j(x)^2 over x in part i and divides by s^3."""
    vertices = [(i, a) for i in range(m) for a in range(s)]
    slots = [(x, y) for x, y in combinations(vertices, 2) if x[0] != y[0]]
    if len(slots) > 16:
        raise ValueError("naive graph enumeration supports at most 16 cross pairs")
    best = None
    for mask in range(1 << len(slots)):
        edges = {frozenset(slots[t]) for t in range(len(slots)) if mask >> t & 1}
        if any({frozenset((x, y)), frozenset((x, z)), frozenset((y, z))} <= edges
               for x, y, z in combinations(vertices, 3)):
            continue
        def degree(x, j):
            return sum(1 for b in range(s) if frozenset((x, (j, b))) in edges)

        ratio = min(Fraction(sum(degree((i, a), j) ** 2 for a in range(s)), s ** 3)
                    for i in range(m) for j in range(m) if i != j)
        if best is None or ratio > best:
            best = ratio
    return best
