"""Reference rules and fixture builders shared by the test modules."""

import math
import random
import re
from fractions import Fraction
from itertools import combinations, permutations

from hyperq.certifiers import SIGN_SPLIT_SEARCH_STEPS, WEAK_SEARCH_STEPS
from hyperq.constructions import Tournament, TripleOrientation
from hyperq.core import Graph, Hypergraph3, Hypergraph4, ParseError, _pair_base, iter_bits
from hyperq.hashing import TAG_AUX_TRIPLE, TAG_TRIPLE_ORIENT, bernoulli, subseed, tuple_hash
from hyperq.multipartite import (
    AuxiliaryHypergraph,
    MultipartiteGraph,
    find_triangle_mp,
    half_split,
)


def tournament_seed(n: int, accept) -> int:
    """Smallest seed whose n-vertex tournament's out-masks pass ``accept``."""
    seed = 0
    while not accept(Tournament(n, seed).out):
        seed += 1
    return seed


def pair_pattern_reference(colouring, allowed) -> list[int]:
    """The pair rows of the pattern construction with every allowed pattern
    of a pair's colour scanned for that pair, about K^2 of them for K
    colours: the reference for ``hypergraph_from_pair_pattern``."""
    n = colouring.n
    kc = colouring.num_colours
    by_first = [[] for _ in range(kc)]
    by_middle = [[] for _ in range(kc)]
    by_last = [[] for _ in range(kc)]
    for a, b, c in set(allowed):
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
                row |= cmask(u, b) & cmask(v, c) & above_v
            for a, c in by_middle[cuv]:
                row |= cmask(u, a) & cmask(v, c) & between
            for a, b in by_last[cuv]:
                row |= cmask(u, a) & cmask(v, b) & below_u
            rows.append(row)
    return rows


def quad_rule_reference(orient) -> list:
    """The 4-uniform edges of a triple orientation by the definition: every
    quadruple whose six pairs are each traversed in opposite directions by
    the two triples of the quadruple containing it."""
    return [quad for quad in combinations(range(orient.n), 4)
            if all(pair_direction(orient, u, v, t0) != pair_direction(orient, u, v, t1)
                   for u, v in combinations(quad, 2)
                   for t0, t1 in [[w for w in quad if w not in (u, v)]])]


def seeded_class(seed: int):
    """The class function of ``TripleOrientation.seeded``: the parity of
    the triple's seeded hash."""
    return lambda x, y, z: tuple_hash(seed, TAG_TRIPLE_ORIENT, x, y, z) & 1


def tournament_class(out: list[int]):
    """The class function of ``TripleOrientation.from_tournament``: rotation
    0 (x->y, y->z, z->x) when it agrees with an odd number of arcs."""
    return lambda x, y, z: 1 - ((out[x] >> y & 1) + (out[y] >> z & 1) + (out[z] >> x & 1)) % 2


def orientation_from_classes(n: int, cls_fn) -> TripleOrientation:
    """The triple orientation whose sorted triple x < y < z takes class
    ``cls_fn(x, y, z)``, its pair directions filled one pair and one third
    vertex at a time."""
    dirs = []
    for u, v in combinations(range(n), 2):
        mask = 0
        for w in range(n):
            if w not in (u, v):
                x, y, z = sorted((u, v, w))
                rotation = ({(x, y), (y, z), (z, x)} if cls_fn(x, y, z) == 0
                            else {(x, z), (z, y), (y, x)})
                if (u, v) in rotation:
                    mask |= 1 << w
        dirs.append(mask)
    return TripleOrientation(n, dirs)


def arcs(orient, x: int, y: int, z: int) -> set[tuple[int, int]]:
    """The three directed arcs of the chosen rotation of a sorted triple,
    read from the direction of its pair {x, y}."""
    if orient.dirs[_pair_base(orient.n)[x] + y - x - 1] >> z & 1:
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


def naive_pair_rows(n: int, arity: int, edges) -> list:
    """The pair rows of ``edges`` (vertex collections), one pair and one
    vertex at a time: the reference for ``from_edges``.  A 3-uniform row is
    the mask of w with {u, v, w} an edge, a 4-uniform one the list over x of
    the masks of y with {u, v, x, y} an edge."""
    kept = {frozenset(e) for e in edges}
    if arity == 3:
        return [sum(1 << w for w in range(n) if frozenset((u, v, w)) in kept)
                for u, v in combinations(range(n), 2)]
    return [[sum(1 << y for y in range(n) if frozenset((u, v, x, y)) in kept)
             for x in range(n)]
            for u, v in combinations(range(n), 2)]


def naive_text(n: int, arity: int, edges) -> str:
    """The text format of ``edges`` written one "%d" field at a time: the
    reference for ``write_hypergraph``."""
    lines = ["%d %d %d" % (arity, n, len(edges))]
    for edge in sorted(tuple(sorted(e)) for e in edges):
        lines.append(" ".join("%d" % v for v in edge))
    return "".join(line + "\n" for line in lines)


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


def triangle_reference(g: Graph, within: int | None = None):
    """The least triangle inside ``within`` by shifted rows and ``iter_bits``:
    the reference for ``find_triangle_graph``."""
    within = (1 << g.n) - 1 if within is None else within
    rows = g.rows
    for x in iter_bits(within):
        row_x = rows[x] & within
        for y in iter_bits(row_x >> (x + 1) << (x + 1)):
            common = row_x & (rows[y] >> (y + 1) << (y + 1))
            if common:
                return (x, y, (common & -common).bit_length() - 1)
    return None


def triangle_count_reference(g: Graph, within: int | None = None) -> int:
    """The triangle count inside ``within`` by shifted rows and ``iter_bits``:
    the reference for ``count_triangles_graph``."""
    within = (1 << g.n) - 1 if within is None else within
    rows = g.rows
    total = 0
    for x in iter_bits(within):
        row_x = rows[x] & within
        for y in iter_bits(row_x >> (x + 1) << (x + 1)):
            total += (row_x & (rows[y] >> (y + 1) << (y + 1))).bit_count()
    return total


def weak_search_reference(h: Hypergraph3, d: Fraction, restarts: int, seed: int,
                          steps: int = WEAK_SEARCH_STEPS):
    """The weak search with every step scoring each vertex's toggle in turn,
    keeping the first strictly best, for at most ``steps`` steps a restart:
    the reference for ``weak_deviation``'s search mode.  Returns
    (max_deviation, witness)."""
    n, p, q = h.n, d.numerator, d.denominator
    links = [h.link_rows(v) for v in range(n)]
    target = [math.comb(s, 3) * p for s in range(n + 2)]
    best, best_witness = Fraction(0), ()
    for r in range(restarts):
        mask = random.Random(subseed(seed, r)).getrandbits(n) & ((1 << n) - 1)
        cnt = [c >> 1 for c in h.pair_counts(mask, mask)]
        e = sum(cnt[v] for v in iter_bits(mask)) // 3
        size = mask.bit_count()
        for _ in range(steps):
            move_v = -1
            move_val = abs(e * q - target[size])
            lose, gain = target[size - 1], target[size + 1]
            for v in range(n):
                if mask >> v & 1:
                    nv = abs((e - cnt[v]) * q - lose)
                else:
                    nv = abs((e + cnt[v]) * q - gain)
                if nv > move_val:
                    move_val = nv
                    move_v = v
            if move_v < 0:
                break
            sign = -1 if mask >> move_v & 1 else 1
            e += sign * cnt[move_v]
            for w, row in enumerate(links[move_v]):
                cnt[w] += sign * (row & mask).bit_count()
            mask ^= 1 << move_v
            size += sign
        final = Fraction(abs(e * q - target[size]), q)
        if final > best:
            best, best_witness = final, tuple(iter_bits(mask))
    return best, best_witness


def best_toggle_reference(total: int, q: int, sides):
    """Every member of every side scored in vertex order, keeping the first
    strictly best: the reference for ``certifiers._best_toggle``.  Returns
    (value, vertex), or (-1, -1) when no side has a member."""
    best, best_v = -1, -1
    for v in range(len(sides[0][0]) if sides else 0):
        for members, counts, sign, target in sides:
            if members[v]:
                val = abs((total + sign * counts[v]) * q - target)
                if val > best:
                    best, best_v = val, v
    return best, best_v


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


def _remove_edge(g: MultipartiteGraph, i: int, a: int, j: int, b: int) -> None:
    u, v = g.offsets[i] + a, g.offsets[j] + b
    g.graph.rows[u] &= ~(1 << v)
    g.graph.rows[v] &= ~(1 << u)


def _creates_triangle(g: MultipartiteGraph, i: int, a: int, j: int, b: int) -> bool:
    # a common neighbour lies in a third part, as no part has inner edges
    return bool(g.graph.rows[g.offsets[i] + a] & g.graph.rows[g.offsets[j] + b])


def _edge_at(g: MultipartiteGraph, r: int) -> tuple[int, int, int, int]:
    """``list(g.iter_edges())[r]``, found from row bit counts."""
    for i in range(g.m):
        for j in range(i + 1, g.m):
            for a, row in enumerate(g.part_rows(i, j)):
                count = row.bit_count()
                if r < count:
                    for _ in range(r):
                        row &= row - 1
                    return (i, a, j, (row & -row).bit_length() - 1)
                r -= count
    raise IndexError("edge index out of range")


def explore_reference(m: int, s: int, eps_target: Fraction | None = None,
                      restarts: int = 32, seed: int = 0, moves: int = 400):
    """The insert-and-swap climb that ``explore_extremal`` settles in closed
    form, run move by move: from the half-split, insert a random missing
    cross edge, first swapping out a random edge when the insertion closes a
    triangle; keep the move when the minimum square sum rises, or stays
    level on a seeded coin.  Returns (graph, min ratio, accepted moves)."""
    base = half_split(m, s)
    norm = s * s * s  # all parts share size s, so ratios share one denominator

    def sq_sums(g: MultipartiteGraph) -> dict:
        return {(i, j): sum(r.bit_count() ** 2 for r in g.part_rows(i, j))
                for i in range(m) for j in range(m) if i != j}

    best_graph = base
    best_min = min(sq_sums(base).values())
    accepted_total = 0
    for restart in range(restarts):
        rng = random.Random(subseed(seed, restart))
        g = MultipartiteGraph(base.sizes)
        g.graph.rows[:] = base.graph.rows
        sums = sq_sums(g)
        cur_min = min(sums.values())
        for _ in range(moves):
            i, j = rng.sample(range(m), 2)
            if i > j:
                i, j = j, i
            a = rng.randrange(s)
            b = rng.randrange(s)
            if g.has_edge(i, a, j, b):
                continue
            removed = None
            if _creates_triangle(g, i, a, j, b):
                removed = _edge_at(g, rng.randrange(g.graph.edge_count))
                _remove_edge(g, *removed)
                if _creates_triangle(g, i, a, j, b):
                    g.add_edge(*removed)
                    continue
            g.add_edge(i, a, j, b)
            touched = {(i, j), (j, i)}
            if removed:
                ri, _, rj, _ = removed
                touched |= {(ri, rj), (rj, ri)}
            old = {key: sums[key] for key in touched}
            for key in touched:
                sums[key] = sum(r.bit_count() ** 2 for r in g.part_rows(*key))
            new_min = min(sums.values())
            if new_min > cur_min or (new_min == cur_min and rng.random() < 0.5):
                cur_min = new_min
                accepted_total += 1
            else:
                _remove_edge(g, i, a, j, b)
                if removed:
                    g.add_edge(*removed)
                sums.update(old)
            if eps_target is not None and Fraction(cur_min, norm) >= Fraction(1, 4) + eps_target:
                break
        if cur_min > best_min:
            best_min = cur_min
            best_graph = g
    if find_triangle_mp(best_graph) is not None:
        raise RuntimeError("explorer produced a graph with a triangle")
    return best_graph, Fraction(best_min, norm), accepted_total


def vanishing_reference(pattern: Hypergraph3):
    """The vanishing-condition search with a conflict check per forced pair:
    (order, colours) for the first enumeration whose forced colouring has no
    conflict, with uncovered pairs red, or None."""
    f = pattern.n
    edges = pattern.edges()
    for perm in permutations(range(f)):
        position = {v: i for i, v in enumerate(perm)}
        colours: dict[tuple[int, int], int] = {}
        ok = True
        for edge in edges:
            by_pos = sorted(edge, key=position.__getitem__)
            forced = (((by_pos[0], by_pos[1]), 0),
                      ((by_pos[0], by_pos[2]), 1),
                      ((by_pos[1], by_pos[2]), 2))
            for (u, v), colour in forced:
                key = (u, v) if u < v else (v, u)
                prev = colours.get(key)
                if prev is None:
                    colours[key] = colour
                elif prev != colour:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            for u in range(f):
                for v in range(u + 1, f):
                    colours.setdefault((u, v), 0)
            return perm, colours
    return None
