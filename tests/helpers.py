"""Reference rules and fixture builders shared by the test modules."""

import random
import re
from fractions import Fraction

from hyperq.certifiers import SIGN_SPLIT_SEARCH_STEPS
from hyperq.constructions import Tournament
from hyperq.core import Hypergraph3, Hypergraph4, ParseError
from hyperq.hashing import TAG_AUX_TRIPLE, bernoulli, subseed
from hyperq.multipartite import AuxiliaryHypergraph


def tournament_seed(n: int, accept) -> int:
    """Smallest seed whose n-vertex tournament's out-masks pass ``accept``."""
    seed = 0
    while not accept(Tournament(n, seed).out):
        seed += 1
    return seed


def arcs(orient, x: int, y: int, z: int) -> set[tuple[int, int]]:
    """The three directed arcs of the chosen rotation of a sorted triple."""
    if orient._cls(x, y, z) == 0:
        return {(x, y), (y, z), (z, x)}
    return {(x, z), (z, y), (y, x)}


def pair_direction(orient, u: int, v: int, w: int) -> int:
    """1 if the rotation chosen for {u, v, w} contains the arc u->v."""
    x, y, z = sorted((u, v, w))
    return 1 if (u, v) in arcs(orient, x, y, z) else 0


def gen_random_auxiliary(m: int, class_size: int, p_num: int, p_den: int,
                         seed: int) -> AuxiliaryHypergraph:
    sizes = {(i, j): class_size for i in range(m) for j in range(i + 1, m)}
    blocks = {}
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                blocks[(i, j, k)] = [
                    (a, b, c)
                    for a in range(class_size) for b in range(class_size)
                    for c in range(class_size)
                    if bernoulli(p_num, p_den, seed, TAG_AUX_TRIPLE, i, j, k, a, b, c)]
    return AuxiliaryHypergraph(m, sizes, blocks)


def has_triple(aux: AuxiliaryHypergraph, vertices: dict) -> bool:
    """``vertices`` maps the three sorted index pairs of a sorted index
    triple to class vertices; True when that block holds the triple."""
    (i, j), (_, k) = sorted(vertices)[:2]
    blk = aux.blocks.get((i, j, k))
    want = (vertices[(i, j)], vertices[(i, k)], vertices[(j, k)])
    return blk is not None and want in blk.triples


def read_lines(text: str):
    """Naive line-by-line reader of the hypergraph text format, the reference
    for ``read_hypergraph``: fields of ASCII digits separated by spaces or
    tabs, lines ended by LF, CRLF or CR, a minus sign refused as negative."""
    lines = re.split(r"\r\n|\r|\n", text)
    if lines[-1] == "":
        lines.pop()
    fields = [re.split(r"[ \t]+", line.strip(" \t")) if line.strip(" \t") else []
              for line in lines]
    if not lines or not fields[0]:
        raise ParseError("line 1: missing header")
    head = fields[0]
    if len(head) != 3:
        raise ParseError("line 1: header must be '<arity> <n> <m>'")
    try:
        if not all(re.fullmatch(r"-?[0-9]+", x) for x in head):
            raise ValueError
        arity, n, m = (int(x) for x in head)
    except ValueError:
        raise ParseError("line 1: header fields must be integers") from None
    if arity not in (3, 4):
        raise ParseError("line 1: unsupported arity %d" % arity)
    if head[1].startswith("-") or head[2].startswith("-"):
        raise ParseError("line 1: negative n or m")
    if len(lines) != m + 1:
        raise ParseError("line %d: expected %d edge lines, found %d"
                         % (len(lines) + 1, m, len(lines) - 1))

    def edges():
        prev = None
        for i, parts in enumerate(fields[1:], start=2):
            if len(parts) != arity:
                raise ParseError("line %d: expected %d vertices" % (i, arity))
            try:
                if not all(re.fullmatch(r"-?[0-9]+", p) for p in parts):
                    raise ValueError
                edge = tuple(int(p) for p in parts)
            except ValueError:
                raise ParseError("line %d: vertices must be integers" % i) from None
            if any(p.startswith("-") or int(p) >= n for p in parts):
                raise ParseError("line %d: vertex out of range [0, %d)" % (i, n))
            if any(edge[j] >= edge[j + 1] for j in range(arity - 1)):
                raise ParseError("line %d: vertices must be strictly increasing" % i)
            if prev is not None and edge <= prev:
                if edge == prev:
                    raise ParseError("line %d: duplicate edge" % i)
                raise ParseError("line %d: edges not sorted lexicographically" % i)
            prev = edge
            yield edge

    return (Hypergraph3 if arity == 3 else Hypergraph4).from_edges(n, edges())


def sign_split_reference(columns, k: int, d: Fraction):
    """The exact sign-split engine by brute force: over all row sets S, in
    single-toggle Gray order, the larger of the positive and the negated
    negative sums of the residuals q * |column & S| - p * |S| (d = p/q);
    the first S reaching the maximum, and the columns whose residual has the
    winning sign there (the positive side on a tie)."""
    p, q = d.numerator, d.denominator

    def residuals(mask):
        return [q * (col & mask).bit_count() - p * mask.bit_count() for col in columns]

    best, best_mask = 0, 0
    for rank in range(1 << k):
        mask = rank ^ (rank >> 1)
        r = residuals(mask)
        value = max(sum(v for v in r if v > 0), -sum(v for v in r if v < 0))
        if value > best:
            best, best_mask = value, mask
    r = residuals(best_mask)
    sign = 1 if sum(r) >= 0 else -1
    members = tuple(v for v in range(k) if best_mask >> v & 1)
    return Fraction(best, q), (members, tuple(c for c, v in enumerate(r) if v * sign > 0))


def sign_split_search_reference(columns, k: int, d: Fraction, restarts: int, seed: int):
    """The sign-split search by brute force: from each seeded start, a climb
    whose every step recounts the residuals of every single-row toggle and
    takes the strictly best, the least row on ties; the best value over the
    restarts (numerator over d's denominator) and the first set reaching it."""
    p, q = d.numerator, d.denominator

    def value(mask):
        r = [q * (col & mask).bit_count() - p * mask.bit_count() for col in columns]
        return max(sum(v for v in r if v > 0), -sum(v for v in r if v < 0))

    best, best_mask = 0, 0
    for i in range(restarts):
        mask = random.Random(subseed(seed, i)).getrandbits(k) & ((1 << k) - 1)
        cur = value(mask)
        for _ in range(SIGN_SPLIT_SEARCH_STEPS):
            move, move_val = None, cur
            for v in range(k):
                val = value(mask ^ 1 << v)
                if val > move_val:
                    move, move_val = v, val
            if move is None:
                break
            mask ^= 1 << move
            cur = move_val
        if cur > best:
            best, best_mask = cur, mask
    return best, best_mask
