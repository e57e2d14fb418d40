"""Randomized duels: optimized search paths against dumb exhaustive brute
force on instances small enough to enumerate completely."""

import random
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from hyperq import certifiers, core
from hyperq.core import (
    N3_CAP,
    N4_CAP,
    Graph,
    Hypergraph3,
    Hypergraph4,
    ParseError,
    read_hypergraph,
    write_hypergraph,
)
from hyperq.certifiers import (
    DeviationReport,
    bipartite_regularity_deviation,
    pair_deviation,
    quad_vertex_deviation,
    relative_density,
    sample_sets,
    weak_deviation,
    xyz_deviation,
)
from hyperq.constructions import gen_random_3hg, gen_tournament_3hg
from hyperq.detectors import (
    check_vanishing_condition,
    count_triangles_graph,
    embed_small,
    find_clique3,
    find_clique_graph,
    find_f4,
    find_k4_minus,
    find_sk,
    find_triangle_graph,
)
from hyperq.multipartite import (
    AuxiliaryHypergraph,
    MultipartiteGraph,
    count_triangles_mp,
    find_three_triples,
    find_triangle_mp,
    gen_random_multipartite,
)
from hyperq.hashing import subseed
from hyperq.oracles import enumerate_pair_deviation, naive_bipartite_deviation
from helpers import (
    best_toggle_reference,
    gen_random_auxiliary,
    has_triple,
    read_lines,
    sign_split_reference,
    sign_split_search_reference,
    triangle_count_reference,
    triangle_reference,
    vanishing_reference,
    weak_search_reference,
)


def random_graph(n, p, rng):
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def test_weak_search_witness_recomputes():
    for seed in range(10):
        h = gen_random_3hg(12, 3, 10, seed)
        d = h.density().density_fraction
        rep = weak_deviation(h, d, mode="search", restarts=3, seed=seed)
        e = sum(1 for edge in h.iter_edges() if set(edge) <= set(rep.witness))
        assert abs(Fraction(e) - d * comb(len(rep.witness), 3)) == rep.max_deviation


# 200/201: p * |S| outgrows small integer types
DENSITIES = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
             Fraction(200, 201)]
# 1 puts every row in the Gray walk, 16 and 64 give blocks of a few rows, and
# the default keeps these sizes in one block: rows land on both sides of it
BLOCK_BUDGETS = [1, 16, 64, certifiers._BLOCK_ENTRIES]


def pair_witness_value(h, d, witness):
    members, x_pairs = witness
    mask = sum(1 << v for v in members)
    return abs(sum((h.link_row(u, v) & mask).bit_count() - d * len(members)
                   for u, v in x_pairs))


def bipartite_witness_value(g, d, witness):
    xs, ys = witness
    e = sum(g.has_edge(0, a, 1, b) for a in xs for b in ys)
    return abs(e - d * len(xs) * len(ys))


@st.composite
def small_hypergraphs(draw):
    # the oracle enumerates pair sets directly up to 16 pairs (n <= 6), which
    # costs seconds at n = 6; n = 7 takes its split path and stays fast
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 7]))
    triples = list(combinations(range(n), 3))
    keep = draw(st.lists(st.booleans(), min_size=len(triples), max_size=len(triples)))
    return Hypergraph3.from_edges(n, [t for t, k in zip(triples, keep) if k])


@st.composite
def small_bipartite(draw):
    nx, ny = draw(st.integers(1, 11)), draw(st.integers(1, 5))
    g = MultipartiteGraph([nx, ny])
    for a in range(nx):
        for b in range(ny):
            if draw(st.booleans()):
                g.add_edge(0, a, 1, b)
    return g


@settings(max_examples=60, deadline=None)
@given(small_hypergraphs(), st.sampled_from(DENSITIES), st.sampled_from(BLOCK_BUDGETS))
def test_pair_engine_vs_oracle(h, d, budget):
    with mock.patch.object(certifiers, "_BLOCK_ENTRIES", budget):
        exact = pair_deviation(h, d)
    assert exact.max_deviation == enumerate_pair_deviation(h, d)
    assert pair_witness_value(h, d, exact.witness) == exact.max_deviation
    found = pair_deviation(h, d, mode="search", restarts=2)
    assert pair_witness_value(h, d, found.witness) == found.max_deviation
    assert found.max_deviation <= exact.max_deviation


@settings(max_examples=60, deadline=None)
@given(small_bipartite(), st.sampled_from(DENSITIES), st.sampled_from(BLOCK_BUDGETS))
def test_bipartite_engine_vs_oracle(g, d, budget):
    with mock.patch.object(certifiers, "_BLOCK_ENTRIES", budget):
        exact = bipartite_regularity_deviation(g, d)
    assert exact.max_deviation == naive_bipartite_deviation(g, d)
    assert bipartite_witness_value(g, d, exact.witness) == exact.max_deviation
    found = bipartite_regularity_deviation(g, d, mode="search", restarts=2)
    assert bipartite_witness_value(g, d, found.witness) == found.max_deviation
    assert found.max_deviation <= exact.max_deviation


def matching_2x2():
    g = MultipartiteGraph([2, 2])
    g.add_edge(0, 0, 1, 0)
    g.add_edge(0, 1, 1, 1)
    return g


ALL_PAIRS_6 = tuple(combinations(range(6), 2))
ALL_PAIRS_7 = tuple(combinations(range(7), 2))
RANDOM9_PAIRS = (
    (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (1, 2), (1, 3), (1, 5),
    (1, 6), (1, 7), (1, 8), (2, 4), (2, 6), (2, 7), (2, 8), (3, 4), (3, 5),
    (3, 6), (3, 8), (4, 5), (4, 6), (5, 6), (5, 7), (6, 7), (6, 8), (7, 8))
RANDOM8_OWN_PAIRS = (
    (0, 1), (0, 2), (0, 4), (0, 6), (0, 7), (1, 2), (1, 4), (1, 6), (1, 7),
    (2, 3), (2, 4), (2, 6), (2, 7), (3, 4), (3, 5), (3, 6), (3, 7), (4, 6),
    (4, 7), (5, 7), (6, 7))
RANDOM10X40_Y = (2, 3, 4, 5, 7, 8, 9, 10, 13, 14, 16, 18, 20, 21, 22, 23, 24,
                 29, 30, 31, 32, 33, 35, 36, 37, 38, 39)

PAIR_INSTANCES = {
    "empty6-d0": (lambda: Hypergraph3.empty(6), Fraction(0)),
    "empty7-d1": (lambda: Hypergraph3.empty(7), Fraction(1)),
    "complete6-d0": (lambda: Hypergraph3.complete(6), Fraction(0)),
    "complete6-d1": (lambda: Hypergraph3.complete(6), Fraction(1)),
    "random6-s1": (lambda: gen_random_3hg(6, 1, 2, 1), Fraction(1, 2)),
    "random6-s2": (lambda: gen_random_3hg(6, 1, 3, 2), Fraction(1, 3)),
    "random9-s4": (lambda: gen_random_3hg(9, 1, 2, 4), Fraction(1, 2)),
    "random8-s7-own": (lambda: gen_random_3hg(8, 1, 2, 7), None),  # d = 29/56
}
BIPARTITE_INSTANCES = {
    "empty5x6-d0": (lambda: MultipartiteGraph([5, 6]), Fraction(0)),
    "empty5x6-d1": (lambda: MultipartiteGraph([5, 6]), Fraction(1)),
    "complete6x5-d0": (lambda: gen_random_multipartite([6, 5], 1, 1, 0), Fraction(0)),
    "complete6x5-d1": (lambda: gen_random_multipartite([6, 5], 1, 1, 0), Fraction(1)),
    "random8x3-s4": (lambda: gen_random_multipartite([8, 3], 1, 2, 4), Fraction(1, 2)),
    "random7x4-s1": (lambda: gen_random_multipartite([7, 4], 1, 3, 1), Fraction(1, 3)),
    "random10x40-s3": (lambda: gen_random_multipartite([10, 40], 1, 2, 3), Fraction(1, 2)),
    # every best X' leaves residuals +1 and -1: the positive side must win
    "matching2x2-half": (lambda: matching_2x2(), Fraction(1, 2)),
    "random11x7-s6-own": (lambda: gen_random_multipartite([11, 7], 1, 2, 6), None),  # 37/77
}
# (kind, mode, instance) -> (max_deviation, witness), recorded from the
# separate per-certifier Gray walks and hill climbs the engine replaced; the
# random instances have 2-16 tied maximizers, so the witness pins the tie-break
GOLDEN = {
    ("pair", "exact", "empty6-d0"): ("0", ((), ())),
    ("pair", "exact", "empty7-d1"): ("147", (tuple(range(7)), ALL_PAIRS_7)),
    ("pair", "exact", "complete6-d0"): ("60", (tuple(range(6)), ALL_PAIRS_6)),
    ("pair", "exact", "complete6-d1"): ("30", (tuple(range(6)), ALL_PAIRS_6)),
    ("pair", "exact", "random6-s1"): ("15/2", ((1, 2, 3), (
        (0, 1), (0, 3), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4)))),
    ("pair", "exact", "random6-s2"): ("29/3", ((0, 1, 3, 4, 5), (
        (0, 1), (0, 3), (0, 5), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 4),
        (3, 5)))),
    ("pair", "exact", "random9-s4"): ("83/2", (tuple(range(9)), RANDOM9_PAIRS)),
    ("pair", "exact", "random8-s7-own"): ("313/8", ((0, 1, 2, 3, 4, 6, 7), RANDOM8_OWN_PAIRS)),
    ("bipartite", "exact", "empty5x6-d0"): ("0", ((), ())),
    ("bipartite", "exact", "empty5x6-d1"): ("30", ((0, 1, 2, 3, 4), (0, 1, 2, 3, 4, 5))),
    ("bipartite", "exact", "complete6x5-d0"): ("30", ((0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4))),
    ("bipartite", "exact", "complete6x5-d1"): ("0", ((), ())),
    ("bipartite", "exact", "random8x3-s4"): ("3", ((1, 2, 3, 4), (0, 2))),
    ("bipartite", "exact", "random7x4-s1"): ("4", ((0, 1, 2, 5, 6), (0, 1, 2))),
    ("bipartite", "exact", "random10x40-s3"): ("65/2", ((0, 3, 4, 5, 6, 7, 8), RANDOM10X40_Y)),
    ("bipartite", "exact", "matching2x2-half"): ("1/2", ((0,), (0,))),
    ("bipartite", "exact", "random11x7-s6-own"): ("670/77", ((0, 1, 2, 7, 8, 9), (0, 1, 3, 4, 5, 6))),
    ("pair", "search", "empty6-d0"): ("0", ((), ())),
    ("pair", "search", "empty7-d1"): ("147", (tuple(range(7)), ALL_PAIRS_7)),
    ("pair", "search", "complete6-d0"): ("60", (tuple(range(6)), ALL_PAIRS_6)),
    ("pair", "search", "complete6-d1"): ("30", (tuple(range(6)), ALL_PAIRS_6)),
    ("pair", "search", "random6-s1"): ("15/2", ((1, 2, 3, 4, 5), (
        (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (4, 5)))),
    ("pair", "search", "random6-s2"): ("29/3", ((0, 1, 3, 4, 5), (
        (0, 1), (0, 3), (0, 5), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 4),
        (3, 5)))),
    ("pair", "search", "random9-s4"): ("83/2", (tuple(range(9)), RANDOM9_PAIRS)),
    ("pair", "search", "random8-s7-own"): ("313/8", ((0, 1, 2, 3, 4, 6, 7), RANDOM8_OWN_PAIRS)),
    ("bipartite", "search", "empty5x6-d0"): ("0", ((), ())),
    ("bipartite", "search", "empty5x6-d1"): ("30", ((0, 1, 2, 3, 4), (0, 1, 2, 3, 4, 5))),
    ("bipartite", "search", "complete6x5-d0"): ("30", ((0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4))),
    ("bipartite", "search", "complete6x5-d1"): ("0", ((), ())),
    ("bipartite", "search", "random8x3-s4"): ("3", ((0, 1, 5, 7), (0, 1))),
    ("bipartite", "search", "random7x4-s1"): ("4", ((0, 2, 4, 5, 6), (0, 1, 2))),
    ("bipartite", "search", "random10x40-s3"): ("32", ((0, 3, 5, 6, 7, 8, 9), (
        2, 3, 4, 5, 6, 7, 8, 9, 10, 13, 14, 18, 20, 21, 22, 23, 24, 29, 30, 31,
        32, 33, 35, 36, 37, 38))),
    ("bipartite", "search", "matching2x2-half"): ("1/2", ((1,), (1,))),
    ("bipartite", "search", "random11x7-s6-own"): ("86/11", ((3, 4, 5, 6, 10), tuple(range(7)))),
}


@pytest.mark.parametrize("key,budget", [
    (key, budget) for key in sorted(GOLDEN)
    for budget in ([1, 16, certifiers._BLOCK_ENTRIES] if key[1] == "exact"
                   else [certifiers._BLOCK_ENTRIES])])
def test_sign_split_golden(key, budget):
    kind, mode, name = key
    if kind == "pair":
        make, d = PAIR_INSTANCES[name]
        run = pair_deviation
    else:
        make, d = BIPARTITE_INSTANCES[name]
        run = bipartite_regularity_deviation
    kwargs = {} if mode == "exact" else {"restarts": 2, "seed": 5}
    with mock.patch.object(certifiers, "_BLOCK_ENTRIES", budget):
        rep = run(make(), d, mode=mode, **kwargs)
    assert (str(rep.max_deviation), rep.witness) == GOLDEN[key]


# densities whose denominator outgrows int64 residual sums; the last one
# does not fit in an int64 at all
HUGE_DENOMINATORS = [Fraction(1, 10 ** 17), Fraction(10 ** 17 - 1, 10 ** 17),
                     Fraction(1, 10 ** 20)]


@pytest.mark.parametrize("d", HUGE_DENOMINATORS, ids=str)
@pytest.mark.parametrize("mode", ["exact", "search"])
def test_weak_huge_denominator(d, mode):
    # the exact walk needs fields past 8 bytes for q = 10^20
    for h in (gen_tournament_3hg(9, 1), gen_random_3hg(7, 1, 2, 3), Hypergraph3.empty(2)):
        rep = weak_deviation(h, d, mode=mode)
        e = sum(1 for edge in h.iter_edges() if set(edge) <= set(rep.witness))
        assert abs(e - d * comb(len(rep.witness), 3)) == rep.max_deviation
        if mode == "exact":
            assert rep == reference_weak_exact(h, d)


@pytest.mark.parametrize("d", HUGE_DENOMINATORS, ids=str)
@pytest.mark.parametrize("mode", ["exact", "search"])
def test_sign_split_huge_denominator(d, mode):
    # n = 1 has no pair column and [0, 3], [3, 0] an empty side
    for h in (gen_random_3hg(7, 1, 2, 3), Hypergraph3.empty(1)):
        rep = pair_deviation(h, d, mode=mode)
        assert rep.max_deviation == enumerate_pair_deviation(h, d)
        assert pair_witness_value(h, d, rep.witness) == rep.max_deviation
    for g in (gen_random_multipartite([6, 9], 1, 2, 1), MultipartiteGraph([0, 3]),
              MultipartiteGraph([3, 0])):
        rep = bipartite_regularity_deviation(g, d, mode=mode)
        assert rep.max_deviation == naive_bipartite_deviation(g, d)
        assert bipartite_witness_value(g, d, rep.witness) == rep.max_deviation


# numerators over denominators whose field widths, at up to 12 rows and 60
# columns, fall on either side of 2, 4 and 8 bytes and past 8
WIDTH_DENOMINATORS = [1, 2, 3, 45, 46, 2 ** 10, 2 ** 20 + 1, 2 ** 22, 2 ** 50,
                      2 ** 52 + 1, 2 ** 54, 10 ** 20]


@st.composite
def width_densities(draw):
    """p/q over a denominator from ``WIDTH_DENOMINATORS``."""
    q = draw(st.sampled_from(WIDTH_DENOMINATORS))
    return Fraction(draw(st.integers(0, q)), q)


@st.composite
def sign_split_inputs(draw):
    k = draw(st.integers(0, 12))
    cols = draw(st.integers(0, 60))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    columns = [sum(1 << r for r in range(k) if rng.random() < density) for _ in range(cols)]
    return columns, k, draw(width_densities())


@settings(max_examples=150, deadline=None)
@given(sign_split_inputs(), st.sampled_from(BLOCK_BUDGETS))
def test_sign_split_exact_vs_reference(instance, budget):
    columns, k, d = instance
    with mock.patch.object(certifiers, "_BLOCK_ENTRIES", budget):
        rep = certifiers._sign_split_deviation("bipartite", d, columns, k, 1, "exact", 0, 0)
    assert (rep.max_deviation, rep.witness) == sign_split_reference(columns, k, d)


def test_sign_split_tables_within_budget():
    """In blocks of all 2^12 sets, 12 x 3000 would trace about 50 MB: the
    walk shrinks its blocks to keep its tables within ``_TABLE_BYTES``."""
    g = gen_random_multipartite([12, 3000], 1, 2, 0)
    tracemalloc.start()
    try:
        rep = bipartite_regularity_deviation(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.trials == {"subsets": 1 << 12}
    assert peak <= 2 * certifiers._TABLE_BYTES


# the densities of the search duel besides random p/q, whose fields pass 2^63
SEARCH_DENSITIES = [Fraction(0), Fraction(1), Fraction(1, 10 ** 20),
                    Fraction(10 ** 20 - 1, 10 ** 20)]


@st.composite
def sign_split_search_inputs(draw):
    """Up to 14 rows and 60 columns, some of them empty and some repeated."""
    k = draw(st.integers(0, 14))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    columns = []
    for _ in range(draw(st.integers(0, 60))):
        pick = rng.random()
        if pick < 0.1:
            columns.append(0)
        elif pick < 0.25 and columns:
            columns.append(rng.choice(columns))
        else:
            columns.append(sum(1 << r for r in range(k) if rng.random() < density))
    q = draw(st.integers(1, 10 ** 19))
    d = draw(st.one_of(st.sampled_from(SEARCH_DENSITIES),
                       st.integers(0, q).map(lambda a: Fraction(a, q))))
    return columns, k, d


@settings(max_examples=150, deadline=None)
@given(sign_split_search_inputs(), st.integers(0, 4), st.integers(0, 10 ** 6))
def test_sign_split_search_vs_reference(instance, restarts, seed):
    columns, k, d = instance
    got = certifiers._sign_split_search(columns, k, d.numerator, d.denominator, restarts, seed)
    assert got == sign_split_search_reference(columns, k, d, restarts, seed)


def test_pair_search_memory():
    """The search keeps k holder masks and k + 3 level masks of C(n, 2)
    bits, about 0.1 MB at n = 100, so its traced peak stays under 2 MB."""
    # a search that loaded numpy would trace the import, not its own arrays:
    # load it first, where installed
    try:
        import numpy  # noqa: F401
    except ImportError:
        pass
    h = gen_tournament_3hg(100, 0)
    tracemalloc.start()
    try:
        rep = pair_deviation(h, "1/4", mode="search", restarts=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.trials == {"restarts": 2}
    assert peak < 2 * 10 ** 6


def reference_xyz(h, d, samples, seed, improve_steps, disjoint):
    """xyz_deviation with every candidate of the improve pass recounted by
    count_ordered_triples, as the certifier did before it kept per-vertex
    counts."""
    n = h.n
    d = h.density().density_fraction if d is None else d
    p, q = d.numerator, d.denominator
    rng = random.Random(subseed(seed, 0x585954))

    def value(xm, ym, zm):
        cnt = h.count_ordered_triples(xm, ym, zm)
        return abs(cnt * q - p * xm.bit_count() * ym.bit_count() * zm.bit_count())

    best = -1
    best_masks = (0, 0, 0)
    for _ in range(samples):
        masks = sample_sets(rng, n, disjoint)
        val = value(*masks)
        if val > best:
            best = val
            best_masks = masks
    improved = 0
    masks = list(best_masks)
    for _ in range(improve_steps):
        step_best = best
        step_move = None
        for which in range(3):
            for v in range(n):
                trial = list(masks)
                if disjoint:
                    for i in range(3):
                        trial[i] &= ~(1 << v)
                    if not masks[which] >> v & 1:
                        trial[which] |= 1 << v
                else:
                    trial[which] ^= 1 << v
                val = value(*trial)
                if val > step_best:
                    step_best = val
                    step_move = tuple(trial)
        if step_move is None:
            break
        masks = list(step_move)
        best = step_best
        improved += 1
    norm = n ** 3
    witness = tuple(tuple(v for v in range(n) if m >> v & 1) for m in masks)
    return DeviationReport("xyz", d, Fraction(best, q), best / (q * norm), norm,
                           witness, "sampled",
                           {"samples": samples, "improve_steps": improved})


@st.composite
def xyz_hypergraphs(draw):
    n = draw(st.integers(1, 14))
    seed = draw(st.integers(0, 10 ** 6))
    if n >= 4 and draw(st.booleans()):
        return gen_tournament_3hg(n, seed)
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0]))
    rng = random.Random(seed)
    return Hypergraph3.from_edges(
        n, [t for t in combinations(range(n), 3) if rng.random() < density])


@settings(max_examples=150, deadline=None)
@given(xyz_hypergraphs(), st.sampled_from([Fraction(0), Fraction(1), None, Fraction(1, 4)]),
       st.booleans(), st.sampled_from([0, 1, 32, 1000]), st.integers(1, 6),
       st.integers(0, 1000))
def test_xyz_improve_vs_recount(h, d, disjoint, steps, samples, seed):
    rep = xyz_deviation(h, d, samples=samples, seed=seed, improve_steps=steps,
                        disjoint=disjoint)
    assert rep == reference_xyz(h, d, samples, seed, steps, disjoint)
    xs, ys, zs = rep.witness
    d = rep.reference_density
    e = h.count_ordered_triples(xs, ys, zs)
    assert abs(e - d * len(xs) * len(ys) * len(zs)) == rep.max_deviation
    if disjoint:
        assert not (set(xs) & set(ys) or set(xs) & set(zs) or set(ys) & set(zs))


@st.composite
def toggle_sides(draw):
    """A total, a q and 0-4 sides over the same n <= 12 vertices, as the
    climbs pass them to ``_best_toggle``: each vertex sits on at most one
    side (so some sides may be empty), counts may be negative (a move
    between sets scores a difference of counts) and may all be equal."""
    n = draw(st.integers(0, 12))
    k = draw(st.integers(0, 4))
    owner = draw(st.lists(st.integers(-1, k - 1), min_size=n, max_size=n))
    spread = draw(st.sampled_from([0, 1, 3, 50]))
    sides = [([int(o == i) for o in owner],
              draw(st.lists(st.integers(-spread, spread), min_size=n, max_size=n)),
              draw(st.sampled_from([-1, 1])), draw(st.integers(-300, 300)))
             for i in range(k)]
    return draw(st.integers(-60, 60)), draw(st.integers(1, 7)), sides


@settings(max_examples=300, deadline=None)
@given(toggle_sides())
def test_best_toggle_vs_scan(case):
    """Count extremes find the toggle that scoring every member finds, with
    the same least vertex on ties, within a side and across sides."""
    total, q, sides = case
    assert certifiers._best_toggle(total, q, sides) == best_toggle_reference(total, q, sides)


# (seed, disjoint) -> (max_deviation, witness, improve_steps) for
# tournament3 n=30 at d = 1/4, 100 samples, certify seed 0, recorded from
# the certifier that recounted every candidate of the improve pass
XYZ_GOLDEN = {
    (0, False): ("2713/4", ((0, 1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 13, 14, 15, 16, 17,
                             18, 19, 20, 21, 22, 23, 24, 25, 26),) * 3, 30),
    (0, True): ("185/2", ((2, 4, 6, 14, 16, 20, 22, 27, 28, 29),
                          (0, 3, 8, 9, 11, 12, 19, 23, 24, 25, 26),
                          (1, 5, 7, 10, 13, 15, 17, 18, 21)), 10),
    (1, False): ("2665/4", ((0, 1, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 16, 17, 18,
                             20, 21, 22, 23, 24, 25, 26, 27, 28, 29),) * 3, 32),
    (1, True): ("123", ((1, 4, 6, 7, 10, 14, 19, 26, 28, 29),
                        (0, 11, 15, 17, 18, 20, 21, 22, 23, 24),
                        (2, 3, 5, 8, 9, 12, 13, 16, 25, 27)), 29),
}


@pytest.mark.parametrize("key", sorted(XYZ_GOLDEN))
def test_xyz_golden(key):
    seed, disjoint = key
    rep = xyz_deviation(gen_tournament_3hg(30, seed), Fraction(1, 4), samples=100,
                        seed=0, disjoint=disjoint)
    assert (str(rep.max_deviation), rep.witness,
            rep.trials["improve_steps"]) == XYZ_GOLDEN[key]


def reference_quad(h, d, samples, seed):
    """quad_vertex_deviation with each sample's ordered quadruples counted by
    brute force over the edges."""
    n = h.n
    d = h.density().density_fraction if d is None else d
    p, q = d.numerator, d.denominator
    rng = random.Random(subseed(seed, 0x51554144))
    best, best_masks = -1, None
    for _ in range(samples):
        masks = [rng.getrandbits(n) for _ in range(4)]
        count = sum(all(m >> v & 1 for m, v in zip(masks, order))
                    for e in h.edges() for order in permutations(e))
        size = 1
        for m in masks:
            size *= m.bit_count()
        val = abs(count * q - p * size)
        if val > best:
            best, best_masks = val, masks
    norm = n ** 4
    witness = tuple(tuple(v for v in range(n) if m >> v & 1) for m in best_masks)
    return DeviationReport("quad", d, Fraction(best, q), best / (q * norm) if norm else 0.0,
                           norm, witness, "sampled", {"samples": samples, "improve_steps": 0})


@st.composite
def quad_hypergraphs(draw):
    n = draw(st.integers(0, 9))
    rate = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    return Hypergraph4.from_edges(
        n, [t for t in combinations(range(n), 4) if rng.random() < rate])


@settings(max_examples=150, deadline=None)
@given(quad_hypergraphs(), st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 8), None]),
       st.integers(1, 6), st.integers(0, 1000))
def test_quad_vs_brute_force(h, d, samples, seed):
    assert quad_vertex_deviation(h, d, samples=samples, seed=seed) == \
        reference_quad(h, d, samples, seed)


def reference_weak_exact(h, d):
    """weak_deviation(mode="exact") as a walk of single Gray toggles, each
    updating e(U) from the toggled vertex's link rows, as the certifier did
    before it walked in blocks."""
    n = h.n
    d = h.density().density_fraction if d is None else d
    p, q = d.numerator, d.denominator
    links = [h.link_rows(v) for v in range(n)]
    target = [comb(s, 3) * p for s in range(n + 1)]
    best = best_mask = e = size = mask = 0
    for i in range(1, 1 << n):
        bit = i & -i  # the reflected Gray walk toggles vertex v at step i
        v = bit.bit_length() - 1
        rest = mask & ~bit
        gained = sum((links[v][x] & rest).bit_count() for x in range(n) if rest >> x & 1)
        sign = -1 if mask & bit else 1
        e += sign * (gained // 2)
        size += sign
        mask ^= bit
        val = abs(e * q - target[size])
        if val > best:
            best = val
            best_mask = mask
    norm = n ** 3
    witness = tuple(v for v in range(n) if best_mask >> v & 1)
    return DeviationReport("weak", d, Fraction(best, q), best / (q * norm) if norm else 0.0,
                           norm, witness, "exact", {"subsets": 1 << n})


def _within(n, keep):
    return Hypergraph3.from_edges(n, [t for t in combinations(range(n), 3) if keep(set(t))])


@st.composite
def weak_instances(draw):
    """A hypergraph and a block budget whose walk over it takes one block,
    two blocks or many, with n <= 15."""
    budget = draw(st.sampled_from(BLOCK_BUDGETS))
    low = budget.bit_length() - 1
    n = min(15, draw(st.one_of(st.integers(0, low), st.just(low + 1),
                               st.integers(low + 2, low + 5))))
    seed = draw(st.integers(0, 10 ** 6))
    shape = draw(st.sampled_from(["tournament", "random", "clique"]))
    if shape == "tournament" and n >= 4:
        return gen_tournament_3hg(n, seed), budget
    rng = random.Random(seed)
    if shape == "clique":
        # every superset of the clique ties at d = 0, every subset at d = 1
        clique = {v for v in range(n) if rng.random() < 0.6}
        return _within(n, lambda t: t <= clique), budget
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    return Hypergraph3.from_edges(
        n, [t for t in combinations(range(n), 3) if rng.random() < density]), budget


# weak fields are as wide as 2 * C(n, 3) * q needs: with n <= 15 these fall on
# either side of 2, 4 and 8 bytes and past 8
@settings(max_examples=120, deadline=None)
@given(weak_instances(), st.one_of(
    st.sampled_from(DENSITIES + [None, Fraction(999999, 1000000)] + HUGE_DENOMINATORS),
    width_densities()))
def test_weak_exact_vs_reference(instance, d):
    h, budget = instance
    with mock.patch.object(certifiers, "_BLOCK_ENTRIES", budget):
        rep = weak_deviation(h, d, mode="exact")
    assert rep == reference_weak_exact(h, d)


# tie-heavy instances: no edges, every edge, a clique on some of the vertices
# (each superset of it reaches the d = 0 maximum) and its complement
WEAK_INSTANCES = {
    "empty9": lambda: Hypergraph3.empty(9),
    "complete9": lambda: Hypergraph3.complete(9),
    "clique-3..9-of-10": lambda: _within(10, lambda t: t <= set(range(3, 10))),
    "coclique-2..8-of-10": lambda: _within(10, lambda t: not t <= set(range(2, 9))),
    "clique-4..12-of-15": lambda: _within(15, lambda t: t <= set(range(4, 13))),
    "tournament11": lambda: gen_tournament_3hg(11, 0),
}
# (instance, d or None for its own density) -> (max_deviation, witness),
# recorded from the single-toggle walk
WEAK_GOLDEN = {
    ("empty9", None): ("0", ()),
    ("empty9", "1"): ("84", (0, 1, 2, 3, 4, 5, 6, 7, 8)),
    ("complete9", None): ("0", ()),
    ("complete9", "0"): ("84", (0, 1, 2, 3, 4, 5, 6, 7, 8)),
    ("clique-3..9-of-10", "0"): ("35", (2, 3, 4, 5, 6, 7, 8, 9)),
    ("clique-3..9-of-10", "1"): ("85", (0, 1, 2, 3, 4, 5, 6, 7, 8, 9)),
    ("coclique-2..8-of-10", "0"): ("85", (0, 1, 2, 3, 4, 5, 6, 7, 8, 9)),
    ("coclique-2..8-of-10", "1"): ("35", (1, 2, 3, 4, 5, 6, 7, 8)),
    ("clique-4..12-of-15", None): ("4452/65", (4, 5, 6, 7, 8, 9, 10, 11, 12)),
    ("clique-4..12-of-15", "0"): ("84", (3, 4, 5, 6, 7, 8, 9, 10, 11, 12)),
    ("tournament11", "0"): ("45", (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)),
    ("tournament11", "1"): ("120", (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)),
}


@pytest.mark.parametrize("key", sorted(WEAK_GOLDEN, key=str), ids=str)
@pytest.mark.parametrize("budget", BLOCK_BUDGETS)
def test_weak_exact_golden(key, budget):
    name, d = key
    h = WEAK_INSTANCES[name]()
    with mock.patch.object(certifiers, "_BLOCK_ENTRIES", budget):
        rep = weak_deviation(h, None if d is None else Fraction(d), mode="exact")
    assert (str(rep.max_deviation), rep.witness) == WEAK_GOLDEN[key]
    assert rep.method == "exact" and rep.trials == {"subsets": 1 << h.n}


# (n, d or None for its own density, search seed) -> (max_deviation, witness
# mask) of weak_deviation(mode="search", restarts=40) on tournament3 seed 0,
# recorded when the start counts were built in batches of 32 restarts: each
# of these maxima is first reached by a restart after the 32nd
WEAK_SEARCH_GOLDEN = {
    (45, None, 1): ("354044/2365", 0x1d5a8f7567f3),
    (45, None, 2): ("350121/2365", 0x1d5aa77567d3),
    (45, "1/4", 1): ("277/2", 0x1d5a8f7567f3),
    (61, "1/4", 1): ("567/2", 0x9df6f77541d66b5),
}


@st.composite
def weak_search_cases(draw):
    """A random 3-graph on at most 16 vertices, d its own density (None), 0,
    1 or a random fraction, a seeded search of 0-4 restarts, and a step cap:
    a climb cut after a step or two ends where the tie-break sent it."""
    n = draw(st.integers(0, 16))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]))
    h = Hypergraph3.from_edges(
        n, [t for t in combinations(range(n), 3) if rng.random() < density])
    d = draw(st.sampled_from([None, Fraction(0), Fraction(1)])
             | st.fractions(0, 1, max_denominator=60))
    steps = draw(st.sampled_from([1, 2, 3, certifiers.WEAK_SEARCH_STEPS]))
    return h, d, draw(st.integers(0, 4)), draw(st.integers(0, 10 ** 6)), steps


@settings(max_examples=200, deadline=None)
@given(weak_search_cases())
def test_weak_search_vs_reference(case):
    """Steps from count extremes take the toggle the vertex-by-vertex scan
    takes, so every restart ends where it does."""
    h, d, restarts, seed, steps = case
    with mock.patch.object(certifiers, "WEAK_SEARCH_STEPS", steps):
        rep = weak_deviation(h, d, mode="search", restarts=restarts, seed=seed)
    own = h.density().density_fraction if d is None else d
    assert (rep.max_deviation, rep.witness) == \
        weak_search_reference(h, own, restarts, seed, steps)


@pytest.mark.parametrize("key", sorted(WEAK_SEARCH_GOLDEN, key=str), ids=str)
def test_weak_search_golden(key):
    n, d, seed = key
    rep = weak_deviation(gen_tournament_3hg(n, 0), None if d is None else Fraction(d),
                         mode="search", restarts=40, seed=seed)
    deviation, mask = WEAK_SEARCH_GOLDEN[key]
    assert (str(rep.max_deviation), rep.witness) == (deviation, tuple(core.iter_bits(mask)))
    assert rep.trials == {"restarts": 40, "max_steps": certifiers.WEAK_SEARCH_STEPS}


def test_clique_graph_vs_brute():
    rng = random.Random(0)
    for trial in range(25):
        g = random_graph(11, 0.55, rng)
        for k in (3, 4, 5):
            brute = next((c for c in combinations(range(11), k)
                          if all(g.has_edge(u, v) for u, v in combinations(c, 2))), None)
            assert find_clique_graph(g, k) == brute  # both scans are lexicographic


@st.composite
def dense_hypergraphs(draw):
    n = draw(st.integers(4, 9))
    density = draw(st.sampled_from([0.6, 0.8, 0.9, 1.0]))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    return Hypergraph3.from_edges(
        n, [t for t in combinations(range(n), 3) if rng.random() < density])


@settings(max_examples=150, deadline=None)
@given(dense_hypergraphs(), st.integers(4, 6))
def test_clique3_vs_brute(h, k):
    brute = next((c for c in combinations(range(h.n), k)
                  if all(h.has_edge(*t) for t in combinations(c, 3))), None)
    found = find_clique3(h, k)
    assert (None if found is None else found.vertices) == brute


def brute_least_apex(h, k, ordered=False):
    """First (vertices, apex), vertices lexicographic then apex ascending,
    where the apex makes an edge with every two of the other k vertices."""
    for vertices in combinations(range(h.n), k + 1):
        for apex in vertices:
            if ordered and apex not in (vertices[0], vertices[-1]):
                continue
            others = [v for v in vertices if v != apex]
            if all(h.has_edge(*sorted((apex, u, w))) for u, w in combinations(others, 2)):
                return vertices, apex
    return None


@st.composite
def apex_hypergraphs(draw):
    n = draw(st.integers(0, 9))
    density = draw(st.sampled_from([0.1, 0.25, 0.4, 0.6, 0.8]))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    return Hypergraph3.from_edges(
        n, [t for t in combinations(range(n), 3) if rng.random() < density])


@settings(max_examples=200, deadline=None)
@given(apex_hypergraphs())
def test_least_apex_vs_brute(h):
    """Which witness the apex searches return, not only whether one exists."""
    found = {"k4minus": find_k4_minus(h), "k4minus_ordered": find_k4_minus(h, ordered=True),
             "sk3": find_sk(h, 3), "sk4": find_sk(h, 4)}
    want = {"k4minus": brute_least_apex(h, 3), "k4minus_ordered": brute_least_apex(h, 3, True),
            "sk3": brute_least_apex(h, 3), "sk4": brute_least_apex(h, 4)}
    for name, w in found.items():
        assert (None if w is None else (w.vertices, w.apex)) == want[name], name


@st.composite
def small_multipartite(draw):
    sizes = draw(st.lists(st.integers(0, 4), max_size=5))
    p = draw(st.integers(1, 4))
    return gen_random_multipartite(sizes, p, 4, draw(st.integers(0, 10 ** 6)))


def brute_triangle_mp(g):
    """First triangle: part triples in combinations order, then vertices
    lexicographically."""
    for parts in combinations(range(g.m), 3):
        for picks in product(*(range(g.sizes[p]) for p in parts)):
            chosen = tuple(zip(parts, picks))
            if all(g.has_edge(i, a, j, b) for (i, a), (j, b) in combinations(chosen, 2)):
                return chosen
    return None


def brute_triangles_mp(g, parts):
    i, j, k = parts
    return sum(g.has_edge(i, a, j, b) and g.has_edge(i, a, k, c) and g.has_edge(j, b, k, c)
               for a in range(g.sizes[i]) for b in range(g.sizes[j])
               for c in range(g.sizes[k]))


@settings(max_examples=200, deadline=None)
@given(small_multipartite(), st.data())
def test_multipartite_views_vs_brute(g, data):
    assert find_triangle_mp(g) == brute_triangle_mp(g)
    assert count_triangles_mp(g) == sum(brute_triangles_mp(g, parts)
                                        for parts in combinations(range(g.m), 3))
    if g.m >= 3:
        parts = tuple(data.draw(st.permutations(range(g.m)))[:3])
        assert count_triangles_mp(g, parts) == brute_triangles_mp(g, parts)


def test_triangle_graph_vs_brute():
    rng = random.Random(1)
    for trial in range(30):
        g = random_graph(10, 0.3, rng)
        found = find_triangle_graph(g)
        brute = next((t for t in combinations(range(10), 3)
                      if all(g.has_edge(u, v) for u, v in combinations(t, 2))),
                     None)
        assert found == brute


@st.composite
def masked_graphs(draw):
    """A random graph on at most 20 vertices, some rows holding their own
    vertex's bit, which neither scan reads, and a mask: none, empty, every
    vertex or a random set."""
    n = draw(st.integers(0, 20))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    g = random_graph(n, draw(st.sampled_from([0.1, 0.3, 0.6, 0.9])), rng)
    for v in range(n):
        if rng.random() < 0.2:
            g.rows[v] |= 1 << v
    within = draw(st.sampled_from([None, 0, (1 << n) - 1]) | st.integers(0, (1 << n) - 1))
    return g, within


@settings(max_examples=300, deadline=None)
@given(masked_graphs())
def test_triangle_kernel_vs_reference(case):
    """The shift-free scan finds and counts what the shifted one does."""
    g, within = case
    assert find_triangle_graph(g, within) == triangle_reference(g, within)
    assert count_triangles_graph(g, within) == triangle_count_reference(g, within)


def brute_embed(pattern, host, ordered):
    verts = range(host.n)
    pool = (combinations(verts, pattern.n) if ordered
            else permutations(verts, pattern.n))
    for image in pool:
        if all(host.has_edge(*(image[v] for v in e)) for e in pattern.edges()):
            return image
    return None


def test_embed_small_completeness():
    rng = random.Random(2)
    triples4 = list(combinations(range(4), 3))
    for trial in range(40):
        edges = [t for t in triples4 if rng.random() < 0.6]
        pattern = Hypergraph3.from_edges(4, edges)
        host = gen_random_3hg(7, 2, 5, trial)
        for ordered in (False, True):
            fast = embed_small(pattern, host, ordered=ordered)
            slow = brute_embed(pattern, host, ordered)
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert all(host.has_edge(*(fast[v] for v in e))
                           for e in pattern.edges())
                if ordered:
                    assert list(fast) == sorted(fast)


def brute_vanishing(pattern):
    f = pattern.n
    pairs = list(combinations(range(f), 2))
    for perm in permutations(range(f)):
        position = {v: i for i, v in enumerate(perm)}
        for assignment in product((0, 1, 2), repeat=len(pairs)):
            colour = dict(zip(pairs, assignment))
            ok = True
            for edge in pattern.edges():
                a, b, c = sorted(edge, key=position.__getitem__)
                want = (((a, b), 0), ((a, c), 1), ((b, c), 2))
                if any(colour[tuple(sorted(pr))] != col for pr, col in want):
                    ok = False
                    break
            if ok:
                return True
    return False


def test_vanishing_vs_full_brute():
    rng = random.Random(3)
    triples4 = list(combinations(range(4), 3))
    seen = set()
    for trial in range(20):
        edges = tuple(t for t in triples4 if rng.random() < 0.5)
        if edges in seen:
            continue
        seen.add(edges)
        pattern = Hypergraph3.from_edges(4, edges)
        assert (check_vanishing_condition(pattern) is not None) == \
            brute_vanishing(pattern)


@st.composite
def vanishing_patterns(draw):
    f = draw(st.integers(0, 6))
    triples = list(combinations(range(f), 3))
    keep = draw(st.lists(st.booleans(), min_size=len(triples), max_size=len(triples)))
    return Hypergraph3.from_edges(f, [t for t, k in zip(triples, keep) if k])


@settings(max_examples=300, deadline=None)
@given(vanishing_patterns())
def test_vanishing_vs_reference(pattern):
    """Same enumeration and the same colours, in the same dict order, as the
    search that checks each forced pair for a conflict as it goes."""
    w = check_vanishing_condition(pattern)
    ref = vanishing_reference(pattern)
    assert (None if w is None else (w.order, list(w.colours.items()))) == \
        (None if ref is None else (ref[0], list(ref[1].items())))


def brute_three_triples(aux):
    """First configuration in the search plan: every quadruple with its
    extreme hubs (largest, then smallest), then every quadruple with its
    interior hubs, and within one the least hub vertices (p14, p24, p34)
    that some rim vertex in each rim class completes.  Returns
    ``(indices, hub vertices, apex_extreme)`` or None."""
    quads = list(combinations(range(aux.m), 4))
    plan = [(quad, quad[h]) for hubs in ((3, 0), (1, 2)) for quad in quads for h in hubs]
    for quad, hub in plan:
        rest = tuple(sorted(set(quad) - {hub}))
        spokes = [tuple(sorted((r, hub))) for r in rest]
        rims = [(rest[0], rest[1]), (rest[0], rest[2]), (rest[1], rest[2])]
        sides = [(0, 1), (0, 2), (1, 2)]  # the two spokes of each rim's triple
        for hub_vertices in product(*(range(aux.class_sizes[s]) for s in spokes)):
            if all(any(has_triple(aux, {rim: q, spokes[a]: hub_vertices[a],
                                        spokes[b]: hub_vertices[b]})
                       for q in range(aux.class_sizes[rim]))
                   for rim, (a, b) in zip(rims, sides)):
                return (rest + (hub,), dict(zip(spokes, hub_vertices)),
                        hub in (quad[0], quad[3]))
    return None


@st.composite
def auxiliary_systems(draw):
    m = draw(st.integers(3, 6))
    sizes = {pair: draw(st.integers(1, 4)) for pair in combinations(range(m), 2)}
    blocks = {}
    for i, j, k in combinations(range(m), 3):
        if draw(st.booleans()) or draw(st.booleans()):  # a quarter stay missing
            shape = (sizes[(i, j)], sizes[(i, k)], sizes[(j, k)])
            slots = list(product(*(range(s) for s in shape)))
            blocks[(i, j, k)] = draw(st.lists(st.sampled_from(slots), max_size=24, unique=True))
    return AuxiliaryHypergraph(m, sizes, blocks)


@settings(max_examples=300, deadline=None)
@given(auxiliary_systems())
def test_three_triples_vs_brute(aux):
    cfg = find_three_triples(aux)
    want = brute_three_triples(aux)
    if want is None:
        assert cfg is None
        return
    indices, hub_vertices, extreme = want
    assert cfg.indices == indices and cfg.apex_extreme == extreme
    assert {k: cfg.vertices[k] for k in hub_vertices} == hub_vertices
    i1, i2, i3, hub = indices
    for x, y in ((i1, i2), (i1, i3), (i2, i3)):
        keys = [(x, y), tuple(sorted((x, hub))), tuple(sorted((y, hub)))]
        assert has_triple(aux, {k: cfg.vertices[k] for k in keys})


# recorded before the rim vertices were read from completion tables; each
# rim vertex is the one of the first triple in frozenset iteration order
THREE_TRIPLES_GOLDEN = {
    (4, 5, 1, 2, 2): ((0, 1, 2, 3), {(0, 3): 0, (1, 3): 0, (2, 3): 0,
                                     (0, 1): 3, (0, 2): 1, (1, 2): 3}),
    (5, 3, 1, 8, 5): ((1, 2, 3, 0), {(0, 1): 0, (0, 2): 2, (0, 3): 0,
                                     (1, 2): 0, (1, 3): 2, (2, 3): 0}),
    (6, 3, 1, 20, 0): ((2, 3, 4, 0), {(0, 2): 2, (0, 3): 2, (0, 4): 0,
                                      (2, 3): 0, (2, 4): 1, (3, 4): 2}),
}


@pytest.mark.parametrize("args", sorted(THREE_TRIPLES_GOLDEN))
def test_three_triples_golden(args):
    cfg = find_three_triples(gen_random_auxiliary(*args))
    assert (cfg.indices, cfg.vertices, cfg.apex_extreme) == \
        THREE_TRIPLES_GOLDEN[args] + (True,)


def test_triangle_count_mp_vs_brute():
    for seed in range(8):
        g = gen_random_multipartite([5, 6, 7], 1, 2, seed)
        assert count_triangles_mp(g) == brute_triangles_mp(g, (0, 1, 2))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_relative_density_vs_brute_in_every_part_order(data):
    """``relative_density`` against counting, over every ordered part triple
    of a random multipartite graph, the triangles whose hypergraph vertices
    form an edge, with random injective vertex lists and a random 3-graph."""
    m = data.draw(st.sampled_from([3, 4]))
    sizes = data.draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    g = gen_random_multipartite(sizes, 1, 2, data.draw(st.integers(0, 2 ** 16)))
    n = sum(sizes) + data.draw(st.integers(0, 3))
    h = gen_random_3hg(n, 1, 2, data.draw(st.integers(0, 2 ** 16)))
    for parts in permutations(range(m), 3):
        order = iter(data.draw(st.permutations(range(n))))
        vertices = [[next(order) for _ in range(g.sizes[p])] for p in parts]
        (i, j, k), (vi, vj, vk) = parts, vertices
        triangles = [(a, b, c) for a in range(g.sizes[i]) for b in range(g.sizes[j])
                     for c in range(g.sizes[k]) if g.has_edge(i, a, j, b)
                     and g.has_edge(i, a, k, c) and g.has_edge(j, b, k, c)]
        matched = sum(h.has_edge(vi[a], vj[b], vk[c]) for a, b, c in triangles)
        want = Fraction(matched, len(triangles)) if triangles else Fraction(0)
        assert relative_density(h, g, vertices, parts) == want


def test_f4_vs_brute():
    rng = random.Random(5)
    quads9 = list(combinations(range(9), 4))
    for trial in range(10):
        edges = [q for q in quads9 if rng.random() < 0.25]
        h = Hypergraph4.from_edges(9, edges)
        brute = False
        for pair in combinations(range(9), 2):
            others = [v for v in range(9) if v not in pair]
            for tri in combinations(others, 3):
                if all(h.has_edge(*pair, a, b) for a, b in combinations(tri, 2)):
                    brute = True
                    break
            if brute:
                break
        assert (find_f4(h) is not None) == brute


def test_serialization_mutation_fuzz():
    base = write_hypergraph(gen_random_3hg(8, 1, 2, 0))
    rng = random.Random(7)
    alphabet = "0123456789 \n-x"
    for _ in range(300):
        chars = list(base)
        for _ in range(rng.randrange(1, 4)):
            pos = rng.randrange(len(chars))
            chars[pos] = rng.choice(alphabet)
        try:
            read_hypergraph("".join(chars))
        except (ParseError, ValueError):
            pass  # every rejection must be a parse-level error


MUTATIONS = ("none", "substitute", "insert", "delete", "double-space", "tab", "edge-space",
             "crlf", "cr", "no-final-newline", "leading-zero", "wrong-m", "over-cap")


@st.composite
def hypergraph_texts(draw):
    """Canonical text of a small 3- or 4-graph, unchanged or mutated."""
    arity = draw(st.sampled_from([3, 4]))
    n = draw(st.integers(0, 9))
    slots = list(combinations(range(n), arity))
    edges = draw(st.lists(st.sampled_from(slots), unique=True)) if slots else []
    h = (Hypergraph3 if arity == 3 else Hypergraph4).from_edges(n, edges)
    text = write_hypergraph(h)
    mutation = draw(st.sampled_from(MUTATIONS))
    if mutation == "substitute":
        chars = list(text)
        for _ in range(draw(st.integers(1, 3))):
            pos = draw(st.integers(0, len(chars) - 1))
            chars[pos] = draw(st.sampled_from("0123456789 \n\r\t-+_x\x0c\u0663"))
        text = "".join(chars)
    elif mutation == "insert":  # a space inserted in a field splits it
        pos = draw(st.integers(0, len(text)))
        text = text[:pos] + draw(st.sampled_from("0123456789 \n")) + text[pos:]
    elif mutation == "delete":
        # deleting a one-digit field's digit drops the field, and deleting a
        # space fuses two fields
        pos = draw(st.integers(0, len(text) - 1))
        text = text[:pos] + text[pos + 1:]
    elif mutation in ("double-space", "tab"):
        spaces = [i for i, c in enumerate(text) if c == " "]
        pos = draw(st.sampled_from(spaces))
        text = text[:pos] + (" " if mutation == "double-space" else "\t") + text[pos + 1:]
    elif mutation == "edge-space":
        ends = [i for i, c in enumerate(text) if c == "\n"]
        pos = draw(st.sampled_from([0] + ends + [i + 1 for i in ends]))
        text = text[:pos] + draw(st.sampled_from([" ", "\t", "  \t"])) + text[pos:]
    elif mutation in ("crlf", "cr"):
        text = text.replace("\n", "\r\n" if mutation == "crlf" else "\r")
    elif mutation == "no-final-newline":
        text = text[:-1]
    elif mutation == "leading-zero":
        starts = [m.start() for m in re.finditer(r"[0-9]+", text)]
        pos = draw(st.sampled_from(starts))
        text = text[:pos] + "0" + text[pos:]
    elif mutation == "wrong-m":
        m = h.edge_count + draw(st.sampled_from([-1, 1, 2]))
        text = "%d %d %d" % (arity, n, max(m, 0)) + text[text.index("\n"):]
    elif mutation == "over-cap":
        cap = N3_CAP if arity == 3 else N4_CAP
        text = "%d %d %d" % (arity, cap + 1, h.edge_count) + text[text.index("\n"):]
    return mutation, text


def parse_outcome(parse, text):
    try:
        h = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return type(h), h.n, h._rows


@settings(max_examples=400, deadline=None)
@given(hypergraph_texts())
def test_bulk_reader_duels_line_checker(case):
    """read_hypergraph, the one reader, agrees with the naive line checker
    on every input: equal rows, or the same error and message."""
    mutation, text = case
    if mutation == "none":
        assert write_hypergraph(read_hypergraph(text)) == text
    assert parse_outcome(read_hypergraph, text) == parse_outcome(read_lines, text)
