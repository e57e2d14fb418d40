"""Quasirandomness certification: deviation maxima for vertex-subset,
triple-of-sets, set-and-pair-set, and four-set edge counts, plus bipartite
regularity deviation, exact tripartite triangle counting with the counting
bound, and relative density of a hypergraph against a tripartite graph.

Exact modes enumerate subsets in Gray-code order and are refused (never
silently downgraded) beyond their caps.  All three run one walk,
``_exact_walk``: each certifier tabulates over the subsets of its low rows or
vertices once, packed into fields of Python ints as wide as its bound needs,
and the walk steps the high ones in Gray-code order, evaluating a block of
subsets per step and unpacking only a block that beats the best so far; the
witness is the maximizer of least Gray rank, the first one a single-toggle
Gray walk meets.  The pair and bipartite certifiers share one sign-split
engine: for each subset of the enumerated side the best set on the other
side is every column whose residual has the winning sign; its search
climbs on masks with one bit per column.  Heuristic modes report certified
lower bounds on the true maximum.
"""

from __future__ import annotations

import math
import operator
import random
from collections import namedtuple
from fractions import Fraction
from itertools import combinations, compress, repeat
from typing import Sequence

from . import multipartite
from .core import (
    CapExceeded,
    Hypergraph3,
    Hypergraph4,
    _as_fraction,
    iter_bits,
    row_bytes,
    unpack_rows,
    vertex_mask,
)
from .hashing import subseed

WEAK_EXACT_HARD_CAP = 24
PAIR_EXACT_HARD_CAP = 20
# search mode holds n holder masks and n + 3 level masks of C(n, 2) bits,
# about 1 MB at n = 200, where the default 32 restarts take about 6.5 s of
# CPU on a 2-vCPU Xeon VM (tournament3, d = 1/4)
PAIR_SEARCH_HARD_CAP = 200
BIPARTITE_EXACT_HARD_CAP = 24
# steepest-toggle steps per restart of the weak and of the sign-split searches
WEAK_SEARCH_STEPS = 10 ** 4
SIGN_SPLIT_SEARCH_STEPS = 200
# the most sets in one block of an exact walk
_BLOCK_ENTRIES = 1 << 13
# bytes of the packed tables of one sign-split walk, which shrinks its blocks
# to stay within them
_TABLE_BYTES = 1 << 22


class DeviationReport(namedtuple("DeviationReport", "kind reference_density max_deviation"
                                                      " eta normalizer witness method trials")):
    """Largest observed deviation of an edge count from its expectation.

    ``max_deviation`` is in raw edge-count units; ``eta`` divides it by the
    stated normalizer (n^3, n^4, or |X||Y|).  Exact methods return the true
    maximum; search and sampling methods return a certified lower bound.
    ``trials`` counts the work done, a fresh dict for each report.
    """

    __slots__ = ()

    @classmethod
    def of(cls, kind: str, d: Fraction, best: int, norm: int, witness, method: str,
           trials: dict) -> "DeviationReport":
        """The report of the integer deviation ``best`` over q = d's
        denominator, its eta rounded once from best / (q * norm)."""
        q = d.denominator
        return cls(kind, d, Fraction(best, q), best / (q * norm) if norm else 0.0, norm,
                   witness, method, trials)


def weak_deviation(h: Hypergraph3, d=None, mode: str = "exact",
                   restarts: int = 32, seed: int = 0) -> DeviationReport:
    """Maximum of |e(U) - d*C(|U|,3)| over vertex subsets U.

    Exact mode walks all 2^n subsets in Gray-code order, a block of them at
    a time, and keeps the maximizer of least Gray rank; it is refused above
    ``WEAK_EXACT_HARD_CAP``.
    Search mode runs seeded steepest-toggle hill climbs from random subsets;
    a negative ``restarts`` is refused.  A toggle's value is convex in the
    count of its vertex, so each step, ``_best_toggle`` as in the xyz improve
    pass, takes the best toggle from the count extremes of the set and of its
    complement, the least vertex on ties, and moves only on a strict gain.
    """
    n = h.n
    d = _as_fraction(d, h.density().density_fraction)
    p, q = d.numerator, d.denominator
    norm = n ** 3
    if mode == "exact" and n > WEAK_EXACT_HARD_CAP:
        raise CapExceeded("exact subset enumeration refused for n=%d > cap %d"
                          % (n, WEAK_EXACT_HARD_CAP))
    if mode not in ("exact", "search"):
        raise ValueError("mode must be 'exact' or 'search'")
    if restarts < 0:
        raise ValueError("restarts must be nonnegative, got %d" % restarts)
    links = [h.link_rows(v) for v in range(n)]
    if mode == "exact":
        best, best_mask = _weak_exact(links, p, q)
        return DeviationReport.of("weak", d, best, norm, tuple(iter_bits(best_mask)), "exact",
                                  {"subsets": 1 << n})

    # target[size - 1] and target[size + 1] count only when that side has a member
    target = [math.comb(s, 3) * p for s in range(n + 2)]
    best, best_witness = 0, ()
    for r in range(restarts):
        mask = random.Random(subseed(seed, r)).getrandbits(n)
        # cnt[v] counts the edges through v with both other vertices in the
        # set; pair_counts meets each once per order of those two vertices
        cnt = [c >> 1 for c in h.pair_counts(mask, mask)]
        inside = [mask >> v & 1 for v in range(n)]
        outside = [1 - i for i in inside]
        e = sum(compress(cnt, inside)) // 3
        size = mask.bit_count()
        for _ in range(WEAK_SEARCH_STEPS):
            top, move_v = _best_toggle(e, q, ((inside, cnt, -1, target[size - 1]),
                                              (outside, cnt, 1, target[size + 1])))
            if top <= abs(e * q - target[size]):
                break
            # no link row holds its own pair's vertices, so the rows of
            # move_v meet the set alike with and without move_v
            step = operator.sub if inside[move_v] else operator.add
            e = step(e, cnt[move_v])
            cnt = list(map(step, cnt, _meets(links[move_v], mask)))
            mask ^= 1 << move_v
            inside[move_v], outside[move_v] = outside[move_v], inside[move_v]
            size = step(size, 1)
        final = abs(e * q - target[size])
        if final > best:
            best, best_witness = final, tuple(iter_bits(mask))
    return DeviationReport.of("weak", d, best, norm, best_witness, "local-search",
                              {"restarts": restarts, "max_steps": WEAK_SEARCH_STEPS})


def _least_with(cnt: list[int], c: int, side: list[int]) -> int:
    """The least vertex on ``side`` whose count is ``c``."""
    v = cnt.index(c)
    while not side[v]:
        v = cnt.index(c, v + 1)
    return v


def _best_toggle(total: int, q: int, sides) -> tuple[int, int]:
    """The best toggle's value and vertex, or (-1, -1) when no side has a
    member.  A side (members, counts, sign, target) offers each member v at
    |(total + sign * counts[v]) * q - target|, which is convex in counts[v],
    so the side's best toggle has its least or greatest count; the least
    vertex wins ties, also across sides."""
    top, ties = -1, []
    for members, counts, sign, target in sides:
        if not any(members):
            continue
        for c in (min(compress(counts, members)), max(compress(counts, members))):
            val = abs((total + sign * c) * q - target)
            if val > top:
                top, ties = val, [(counts, c, members)]
            elif val == top:
                ties.append((counts, c, members))
    return top, min([_least_with(*tie) for tie in ties]) if ties else -1


def _meets(rows: list[int], mask: int):
    """The number of bits of ``mask`` in each row, in one C-level map."""
    return map(int.bit_count, map(operator.and_, rows, repeat(mask)))


def _member_tables(low: int, w: int) -> tuple[int, list[int]]:
    """The table of 2^low w-byte fields that all hold 1, and for each row
    a < low its member table, whose field A holds [a in A]: 2^a fields of 0
    then 2^a fields of 1, repeated.  The AND of some member tables holds in
    field A whether A has all of their rows."""
    one = b"\1".ljust(w, b"\0")
    members = [int.from_bytes((bytes(w << a) + one * (1 << a)) * (1 << low - a - 1), "little")
               for a in range(low)]
    return int.from_bytes(one * (1 << low), "little"), members


def _block_rows(k: int) -> int:
    """Rows of one block of an exact walk over k rows: set-up and unpacks
    cost time in 2^low, steps in 2^(k - low).  Best of 7, in ms of CPU on a
    2-vCPU Xeon VM, for (k + 3, 5, 7) // 2: weak n = 17 3.9, 4.6, 6.9 and
    n = 20 26.5, 27.3, 34.1, pair n = 15 14.7, 12.7, 13.7 (tournament3),
    bipartite 15 x 44 6.6, 6.3, 6.8 (edges at rate 1/2)."""
    return min(k, _BLOCK_ENTRIES.bit_length() - 1, (k + 5) // 2)


def _weak_exact(links: list[list[int]], p: int, q: int) -> tuple[int, int]:
    """Largest |x(U)| = |e(U) * q - C(|U|, 3) * p| over all vertex sets U,
    and the U of least Gray rank reaching it.

    U splits into A over the ``low`` first vertices and B over the rest, and
    e(A | B) = e(A) + sum over b in B of l_b(A) + sum over a in A of y_a(B)
    + e(B), where l_b(A) and y_a(B) count the pairs in A and in B that
    complete an edge with b and with a; with s = |B|, C(|A| + s, 3) =
    C(|A|, 3) + C(|A|, 2) s + |A| C(s, 2) + C(s, 3).  Each term is a packed
    table over the sets A times a scalar of the block, a sum of member
    tables and of their pair and triple ANDs, and field A sums to
    2^b + x(A | B).  As 0 <= p <= q, |x| < q C(n, 3) < 2^b, so bit b of a
    field is set exactly when x >= 0, masking the field's lower bits by it
    leaves max(x, 0), and |x| = 2 max(x, 0) - x.
    """
    n = len(links)
    w = ((2 * max(math.comb(n, 3), 1) * q).bit_length() + 7) // 8
    b = 8 * w - 1
    low = _block_rows(n)
    ones, members = _member_tables(low, w)
    signs = ones << b
    # pairs[a][c] is the table of the pair {c < a}, and edges[v] lists the
    # pairs of low vertices below v that complete an edge with v
    pairs = [[members[a] & m for m in members[:a]] for a in range(low)]
    edges = [[(a, c) for a in range(min(v, low)) for c in iter_bits(row[a] & ((1 << a) - 1))]
             for v, row in enumerate(links)]
    # q * (e(A) + sum over b in B of l_b(A))
    run = q * sum(pairs[a][c] & members[v] for v in range(low) for a, c in edges[v])
    ell = [q * sum(pairs[a][c] for a, c in edges[v]) for v in range(low, n)]
    c1, c2 = p * sum(members), p * sum(map(sum, pairs))
    c3 = p * sum(t & m for x, m in enumerate(members) for row in pairs[:x] for t in row)
    # 2^b - p * C(|A| + s, 3) in field A, for each s
    shifts = [signs - c3 - s * c2 - math.comb(s, 2) * c1 - p * math.comb(s, 3) * ones
              for s in range(n - low + 1)]
    y = [0] * low
    high = e_high = size_b = 0

    def block(a: int, sign: int) -> int:
        nonlocal run, high, e_high, size_b
        if sign:
            row = links[low + a]
            high ^= 1 << low + a
            rest = high & ~(1 << low + a)
            e_high += sign * (sum((row[x] & rest).bit_count() for x in iter_bits(rest)) // 2)
            y[:] = map(operator.add if sign > 0 else operator.sub, y, _meets(row[:low], rest))
            run += sign * ell[a]
            size_b += sign
        s = run + shifts[size_b] + q * e_high * ones
        s += sum(q * count * m for count, m in zip(y, members) if count)
        m = s & signs
        return 2 * (s & (m - (m >> b))) + signs - s

    return _exact_walk(n, low, w, block)


def _exact_walk(k: int, low: int, w: int, block) -> tuple[int, int]:
    """Largest value over all sets of k rows, and the set of least Gray
    rank reaching it.

    A set splits into A over the ``low`` first rows and B over the rest.  B
    steps in Gray-code order: ``block(a, sign)`` toggles high row low + a
    (sign 1 when it enters, -1 when it leaves, 0 before the first step) and
    returns one int whose w-byte field A holds the value of A | B, below 2^b
    (b = 8w - 1).  Bit b of total + signs - (best + 1) * ones is set in just
    the fields above ``best``, so a block that beats nothing is not unpacked.
    An odd block meets the sets A in reverse order of their even Gray rank.
    """
    b = 8 * w - 1
    ones = _member_tables(low, w)[0]
    signs = ones << b
    cut = signs - ones
    # rank[A] is the Gray rank of A in an even block
    rank = sorted(range(1 << low), key=lambda r: r ^ r >> 1)
    high = best = best_mask = 0
    total = block(0, 0)
    for j in range(1 << (k - low)):
        if j:
            a = (j & -j).bit_length() - 1
            high ^= 1 << low + a
            total = block(a, 1 if high >> low + a & 1 else -1)
        if not (total + cut) & signs:
            continue
        vals = unpack_rows(total, w, 1 << low)
        best = max(vals)
        tied = [f for f, v in enumerate(vals) if v == best]
        best_mask = high | (max if j & 1 else min)(tied, key=rank.__getitem__)
        cut = signs - (best + 1) * ones
    return best, best_mask


def sample_sets(rng: random.Random, n: int, disjoint: bool = False,
                count: int = 3) -> list[int]:
    """A list of ``count`` random vertex masks; in disjoint mode each vertex
    joins at most one of them."""
    if not disjoint:
        return [rng.getrandbits(n) for _ in range(count)]
    masks = [0] * count
    for v in range(n):
        slot = rng.randrange(count + 1)
        if slot < count:
            masks[slot] |= 1 << v
    return masks


def _best_sample(counter, rng: random.Random, n: int, count: int, disjoint: bool,
                 samples: int, p: int, q: int) -> tuple[int, list[int]]:
    """The largest |counter(*masks) * q - p * prod |mask|| over ``samples``
    draws of ``sample_sets``, and the first draw reaching it."""
    best, best_masks = -1, []
    for _ in range(samples):
        masks = sample_sets(rng, n, disjoint, count)
        val = abs(counter(*masks) * q - p * math.prod(map(int.bit_count, masks)))
        if val > best:
            best, best_masks = val, masks
    return best, best_masks


def xyz_deviation(h: Hypergraph3, d=None, samples: int = 200, seed: int = 0,
                  improve_steps: int = 32, disjoint: bool = False) -> DeviationReport:
    """Largest |e(X,Y,Z) - d|X||Y||Z|| over sampled set triples, with a
    steepest-toggle improvement pass from the best sample.

    The sieve consequence of subset quasirandomness bounds this deviation by
    7 eta n^3 for disjoint X, Y, Z; ``disjoint=True`` samples within that
    regime (overlapping triples can exceed the factor-7 bound).
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    n = h.n
    d = _as_fraction(d, h.density().density_fraction)
    p, q = d.numerator, d.denominator
    best, masks = _best_sample(h.count_ordered_triples, random.Random(subseed(seed, 0x585954)),
                               n, 3, disjoint, samples, p, q)
    masks, best, improved = _xyz_improve(h, masks, best, p, q, improve_steps, disjoint)
    return DeviationReport.of("xyz", d, best, n ** 3, tuple(tuple(iter_bits(m)) for m in masks),
                              "sampled", {"samples": samples, "improve_steps": improved})


# the two sets other than set i, for each i
_OTHER_SETS = ((1, 2), (0, 2), (0, 1))


def _xyz_improve(h: Hypergraph3, masks: list, best: int, p: int, q: int,
                 steps: int, disjoint: bool) -> tuple[list, int, int]:
    """Steepest-toggle ascent of |e(X,Y,Z) * q - p|X||Y||Z|| from ``masks``
    worth ``best``; returns the final masks, their value and the steps taken.

    Toggling v in set i moves it out of i, or into i (in disjoint mode out
    of its set too).  ``c[i][v]`` counts the ordered pairs from the two sets
    other than i that complete an edge with v, whatever v's own place, as no
    link row holds its own pair's vertices.  Set i's toggles are sides of
    the weak search's step ``_best_toggle``: leave i and enter i (counts
    ``c[i]``), and in disjoint mode move from j to i (``c[i] - c[j]``).  A
    later set is taken only on a strict gain.
    """
    if not steps:
        return masks, best, 0
    n = h.n
    c = [h.pair_counts(masks[j], masks[k]) for j, k in _OTHER_SETS]
    inside = [[m >> v & 1 for v in range(n)] for m in masks]
    # outside[i] marks the vertices that may enter set i: those not in it,
    # or in disjoint mode those in no set, one list shared by all three
    outside = ([[1 - (x | y | z) for x, y, z in zip(*inside)]] * 3 if disjoint
               else [[1 - x for x in row] for row in inside])
    cnt = sum(compress(c[0], inside[0]))
    sizes = [m.bit_count() for m in masks]
    improved = 0
    for _ in range(steps):
        step_best, move = best, None
        for i, (j, k) in enumerate(_OTHER_SETS):
            rest = p * sizes[j] * sizes[k]
            sides = [(inside[i], c[i], -1, rest * (sizes[i] - 1)),
                     (outside[i], c[i], 1, rest * (sizes[i] + 1))]
            if disjoint:
                sides += [(inside[t], list(map(operator.sub, c[i], c[t])), 1,
                           p * (sizes[i] + 1) * (sizes[t] - 1) * sizes[u])
                          for t, u in ((j, k), (k, j))]
            val, v = _best_toggle(cnt, q, sides)
            if val > step_best:
                step_best, move = val, (i, v)
        if move is None:
            break
        i, v = move
        links = h.link_rows(v)
        # in disjoint mode v first leaves the other set it is in, if any
        for t in ([i] if inside[i][v] else
                  [j for j in _OTHER_SETS[i] if disjoint and inside[j][v]] + [i]):
            step = operator.sub if inside[t][v] else operator.add
            inside[t][v] ^= 1
            masks[t] ^= 1 << v
            sizes[t] = step(sizes[t], 1)
            cnt = step(cnt, c[t][v])
            for j, k in (_OTHER_SETS[t], _OTHER_SETS[t][::-1]):
                c[j] = list(map(step, c[j], _meets(links, masks[k])))
        outside[i][v] = 1 - inside[i][v]
        best = step_best
        improved += 1
    return masks, best, improved


def _sign_split_deviation(kind: str, d: Fraction, columns: Sequence[int], k: int,
                          norm: int, mode: str, restarts: int,
                          seed: int) -> DeviationReport:
    """Report of the largest, over row subsets S, of the better one-sign
    column sum of q * deg_S - p * |S| (d = p/q), where deg_S sums the 0/1 rows
    in S; ``norm`` normalizes eta.

    ``columns[c]`` is the bitmask over the k rows of the entries of column c
    that are 1.  The witness is S and the columns whose residual has the
    winning sign (the positive side on a tie).  Exact mode keeps the
    maximizer of least Gray rank; search mode keeps the first restart
    reaching the best value, each climb taking strict improvements and the
    least row on ties.  Both modes refuse a negative ``restarts``.
    """
    p, q = d.numerator, d.denominator
    if restarts < 0:
        raise ValueError("restarts must be nonnegative, got %d" % restarts)
    if mode == "exact":
        best, best_mask = _sign_split_exact(columns, k, p, q)
    elif mode == "search":
        best, best_mask = _sign_split_search(columns, k, p, q, restarts, seed)
    else:
        raise ValueError("mode must be 'exact' or 'search'")
    size = best_mask.bit_count()
    r = [q * (col & best_mask).bit_count() - p * size for col in columns]
    sign = 1 if sum(r) >= 0 else -1
    witness = (tuple(iter_bits(best_mask)), tuple(c for c, v in enumerate(r) if v * sign > 0))
    method, trials = (("exact", {"subsets": 1 << k}) if mode == "exact"
                      else ("local-search", {"restarts": restarts}))
    return DeviationReport.of(kind, d, best, norm, witness, method, trials)


def _sign_split_exact(columns: Sequence[int], k: int, p: int, q: int) -> tuple[int, int]:
    """Largest sign-split value over all row sets S, and the S of least Gray
    rank reaching it.

    With x_c = p|S| - q deg_S(c) and R = -(sum of the x_c), the value
    (sum |r| + |sum r|) / 2 is N + max(R, 0), N summing the x_c above 0.
    S splits into A over the ``low`` first rows and B over the rest, and
    x_c(A | B) = x_c(A) + x_c(B).  Every table over the sets A is packed
    into w-byte fields, field A holding 2^b + x_c(A) (b = 8w - 1), one
    table per column and one for R, each a sum of member tables.  No |x_c|,
    |R| or value reaches cols * k * q < 2^b (as 0 <= p <= q), so adding
    x_c(B) to every field keeps it in [0, 2^(b + 1)): bit b is set exactly
    when x_c(A | B) >= 0, and masking the field's lower bits by it adds
    max(x_c, 0).
    """
    cols = len(columns)
    w = ((2 * max(cols, 1) * max(k, 1) * q).bit_length() + 7) // 8
    b = 8 * w - 1
    low = _block_rows(k)
    while low and (cols + 1) * w << low > _TABLE_BYTES:
        low -= 1
    ones, members = _member_tables(low, w)
    signs = ones << b
    # 2^b first, so that no partial sum borrows from the next field
    base = signs + p * sum(members)
    tables = [base - q * sum(members[a] for a in iter_bits(col & ((1 << low) - 1)))
              for col in columns]
    rtable = sum(((q * sum(col >> a & 1 for col in columns) - p * cols) * m
                  for a, m in enumerate(members)), signs)
    # holders[a] lists the columns holding high row low + a, and counts[c]
    # counts the rows of B in column c
    holders = [[c for c, col in enumerate(columns) if col >> a & 1] for a in range(low, k)]
    counts = [0] * cols
    size_b = 0

    def block(a: int, sign: int) -> int:
        nonlocal size_b
        if sign:
            for c in holders[a]:
                counts[c] += sign
            size_b += sign
        shifts = [(p * size_b - q * h) * ones for h in range(size_b + 1)]
        total = 0
        for t, h in zip(tables, counts):
            s = t + shifts[h]
            m = s & signs
            total += s & (m - (m >> b))
        s = rtable + (q * sum(counts) - p * cols * size_b) * ones
        m = s & signs
        return total + (s & (m - (m >> b)))

    return _exact_walk(k, low, w, block)


def _sign_split_search(columns: Sequence[int], k: int, p: int, q: int,
                       restarts: int, seed: int) -> tuple[int, int]:
    """Best sign-split value of ``restarts`` seeded steepest-toggle climbs over
    row sets, and the set reaching it first.

    Masks hold one bit per column: ``holders[v]`` the columns holding row v,
    and ``ge[h + 1]`` those meeting the set S in at least h rows, whose
    residual is r = q h - p |S|.  Toggling row v with sign g (1 to enter)
    moves every r by -g p, summed over the columns from the level counts,
    and the r of v's holders by a further g q: with s the new size,
    t = ceil(p s / q) and a = t - (g > 0), a holder's |r| moves by g q above
    level a, by -g q below it and by g (q (2t - 1) - 2 p s) at it.  Values
    are doubled, sum |r| + |sum r|; ``move_val`` ends as the final set's.
    """
    cols = len(columns)
    width = (k + 7) // 8
    raw = row_bytes(columns, width)
    # digits[i] maps a byte to the digit of its bit i; column c sits at bit
    # cols - 1 - c of every mask, as only counts are read
    digits = [bytes(b"01"[byte >> i & 1] for byte in range(256)) for i in range(8)]
    holders = [int(raw[v >> 3::width].translate(digits[v & 7]) or b"0", 2) for v in range(k)]
    held = [hv.bit_count() for hv in holders]

    def shift(ge: list, v: int, sign: int) -> None:
        """Move the holders of row v one level up (sign 1) or down."""
        hv = holders[v]
        if sign > 0:
            for j in range(k + 1, 1, -1):
                ge[j] |= ge[j - 1] & hv
        else:
            for j in range(2, k + 2):
                ge[j] &= ~hv | ge[j + 1]

    best = best_mask = 0
    for r in range(restarts):
        mask = random.Random(subseed(seed, r)).getrandbits(k)
        ge = [(1 << cols) - 1] * 2 + [0] * (k + 1)
        for v in iter_bits(mask):
            shift(ge, v, 1)
        size = mask.bit_count()
        total = q * sum(held[v] for v in iter_bits(mask)) - p * size * cols
        for _ in range(SIGN_SPLIT_SEARCH_STEPS):
            pops = [g.bit_count() for g in ge]
            # spread[g + 1] sums |q h - p (|S| + g)| over the columns, read in [0, k]
            spread = [sum((pops[h + 1] - pops[h + 2]) * abs(q * h - p * s)
                          for h in range(size + 1)) for s in (size - 1, size, size + 1)]
            toggles = {}
            for sign in (-1, 1):
                s = size + sign
                t = -(-p * s // q)
                toggles[sign] = (spread[sign + 1], ge[t + (sign < 0)], ge[t + 1 + (sign < 0)],
                                 sign * (q * (2 * t - 1) - 2 * p * s))
            move, move_val = None, spread[1] + abs(total)
            for v in range(k):
                sign = -1 if mask >> v & 1 else 1
                base, at_least, above, edge = toggles[sign]
                upper = (holders[v] & above).bit_count()
                mid = (holders[v] & at_least).bit_count() - upper
                val = (base + sign * q * (2 * upper + mid - held[v]) + edge * mid
                       + abs(total + sign * (q * held[v] - p * cols)))
                if val > move_val:
                    move, move_val = v, val
            if move is None:
                break
            sign = -1 if mask >> move & 1 else 1
            shift(ge, move, sign)
            total += sign * (q * held[move] - p * cols)
            size += sign
            mask ^= 1 << move
        if move_val > best:
            best, best_mask = move_val, mask
    return best // 2, best_mask


def pair_deviation(h: Hypergraph3, d=None, mode: str = "exact",
                   restarts: int = 32, seed: int = 0) -> DeviationReport:
    """Maximum of |e(U, X) - d|U||X|| over vertex sets U and pair sets X.

    Uses the decomposition e(U, X) - d|U||X| = sum over pairs p in X of
    (deg_U(p) - d|U|): for any fixed U the maximizing X collects all pairs
    whose residual shares one sign, so only U is enumerated.  Exact mode
    walks subsets U in blocked Gray-code order and is refused above
    ``PAIR_EXACT_HARD_CAP``; search mode is refused above
    ``PAIR_SEARCH_HARD_CAP``.
    """
    n = h.n
    d = _as_fraction(d, h.density().density_fraction)
    if mode == "exact" and n > PAIR_EXACT_HARD_CAP:
        raise CapExceeded("exact pair deviation refused for n=%d > cap %d"
                          % (n, PAIR_EXACT_HARD_CAP))
    if mode == "search" and n > PAIR_SEARCH_HARD_CAP:
        raise CapExceeded("pair deviation search refused for n=%d > cap %d"
                          % (n, PAIR_SEARCH_HARD_CAP))
    # the pair rows are the columns, in the order of combinations(range(n), 2)
    rep = _sign_split_deviation("pair", d, h._rows, n, n ** 3, mode, restarts, seed)
    members, kept = rep.witness
    pairs = list(combinations(range(n), 2))
    return rep._replace(witness=(members, tuple(pairs[c] for c in kept)))


def quad_vertex_deviation(h: Hypergraph4, d=None, samples: int = 100,
                          seed: int = 0) -> DeviationReport:
    """Largest |e(U1..U4) - d prod |Ui|| over sampled vertex-set quadruples."""
    if samples < 1:
        raise ValueError("need at least one sample")
    n = h.n
    d = _as_fraction(d, h.density().density_fraction)
    p, q = d.numerator, d.denominator
    best, masks = _best_sample(h.count_ordered_quadruples,
                               random.Random(subseed(seed, 0x51554144)), n, 4, False,
                               samples, p, q)
    return DeviationReport.of("quad", d, best, n ** 4, tuple(tuple(iter_bits(m)) for m in masks),
                              "sampled", {"samples": samples, "improve_steps": 0})


def bipartite_regularity_deviation(g: multipartite.MultipartiteGraph, d=None,
                                   mode: str = "exact",
                                   parts: tuple[int, int] = (0, 1),
                                   restarts: int = 32, seed: int = 0) -> DeviationReport:
    """Maximum of |e(X', Y') - d |X'||Y'|| over subsets of the two sides.

    For a fixed X' the maximizing Y' collects the vertices whose degree
    residual shares one sign, so exact mode enumerates X' subsets only
    (blocked Gray-code order) and is refused above ``BIPARTITE_EXACT_HARD_CAP``.
    The eta field is the deviation normalized by |X||Y|.
    """
    i, j = parts
    if i == j or not (0 <= i < g.m and 0 <= j < g.m):
        raise ValueError("bipartite deviation needs two parts, the graph has %d" % g.m)
    d = _as_fraction(d, g.pair_density(i, j))
    return _bipartite_deviation(g.part_rows(j, i), g.sizes[i], d, mode, restarts, seed)


def _bipartite_deviation(columns: Sequence[int], nx: int, d: Fraction, mode: str,
                         restarts: int, seed: int) -> DeviationReport:
    """``_sign_split_deviation`` on the nx rows of one side, refused above
    the exact cap before anything is built."""
    if mode == "exact" and nx > BIPARTITE_EXACT_HARD_CAP:
        raise CapExceeded("exact bipartite deviation refused for |X|=%d > cap %d"
                          % (nx, BIPARTITE_EXACT_HARD_CAP))
    return _sign_split_deviation("bipartite", d, columns, nx, nx * len(columns),
                                 mode, restarts, seed)


class TriangleBoundReport(namedtuple("TriangleBoundReport",
                                     "count d2 delta2_hat bound holds per_pair_delta")):
    """Exact triangle count of a tripartite graph against the counting bound
    d2^3 |X||Y||Z| + 3 delta2 |X||Y||Z|."""

    __slots__ = ()


def triangle_bound_check(g: multipartite.MultipartiteGraph, d2,
                         parts: tuple[int, int, int] = (0, 1, 2),
                         enum_side: int = 16) -> TriangleBoundReport:
    """Compare the exact triangle count with d2^3 + 3*delta2_hat (scaled by
    |X||Y||Z|), where delta2_hat is the largest of the three pairwise
    regularity deviations measured exactly on an enumeration side capped at
    ``enum_side`` vertices (full opposite side)."""
    i, j, k = parts
    d2 = _as_fraction(d2, g.pair_density(i, j))
    deltas = []
    low = (1 << enum_side) - 1
    for (a, b) in ((i, j), (i, k), (j, k)):
        columns = [col & low for col in g.part_rows(b, a)]
        rep = _bipartite_deviation(columns, min(g.sizes[a], enum_side), d2,
                                   "exact", 0, 0)
        # a pair with an empty side has no edges and deviates by 0
        deltas.append(Fraction(rep.max_deviation, rep.normalizer)
                      if rep.normalizer else Fraction(0))
    delta_hat = max(deltas)
    count = multipartite.count_triangles_mp(g, parts)
    volume = g.sizes[i] * g.sizes[j] * g.sizes[k]
    bound = (d2 ** 3) * volume + 3 * delta_hat * volume
    return TriangleBoundReport(count, d2, delta_hat, bound, count <= bound,
                               tuple(deltas))


def relative_density(h: Hypergraph3, g: multipartite.MultipartiteGraph,
                     part_vertices: Sequence[Sequence[int]],
                     parts: tuple[int, int, int] = (0, 1, 2)) -> Fraction:
    """Fraction of the tripartite graph's triangles that are hyperedges.

    ``part_vertices[t]`` lists the hypergraph vertices behind the local
    indices of part ``parts[t]``, distinct vertices of 0..h.n-1.  Returns 0
    when there are no triangles.
    """
    i, j, k = multipartite.distinct_indices("part triple", parts, 3, g.m)
    vi, vj, vk = map(list, part_vertices)
    if (len(vi), len(vj), len(vk)) != (g.sizes[i], g.sizes[j], g.sizes[k]):
        raise ValueError("part vertex lists must match the part sizes")
    listed = vi + vj + vk
    if vertex_mask(listed, h.n).bit_count() < len(listed):
        raise ValueError("vertex %r listed twice" % next(v for v in listed if listed.count(v) > 1))
    rows_ij, rows_ik, rows_jk = g.part_rows(i, j), g.part_rows(i, k), g.part_rows(j, k)
    triangles = 0
    matched = 0
    for a in range(g.sizes[i]):
        rik = rows_ik[a]
        if not rik:
            continue
        for b in iter_bits(rows_ij[a]):
            common = rik & rows_jk[b]
            if not common:
                continue
            triangles += common.bit_count()
            hrow = h.link_row(vi[a], vj[b])
            for c in iter_bits(common):
                if hrow >> vk[c] & 1:
                    matched += 1
    if triangles == 0:
        return Fraction(0)
    return Fraction(matched, triangles)
