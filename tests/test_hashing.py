"""The prefix step of the seeded hashing, and every seeded random generator
built on it, duelled against ``tuple_hash`` and ``bernoulli`` one tuple at a
time."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from hyperq.constructions import gen_random_3hg
from hyperq.hashing import (
    MASK64,
    TAG_AUX_TRIPLE,
    TAG_MP_EDGE,
    TAG_RANDOM_TRIPLE,
    bernoulli,
    child_hashes,
    odd_children,
    tuple_hash,
)
from hyperq.multipartite import gen_random_aux_block, gen_random_multipartite

PARTS = st.integers(0, 600) | st.integers(0, MASK64)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, MASK64), st.integers(0, 0xFF), st.lists(PARTS, max_size=5),
       st.integers(0, 300), st.integers(-3, 80))
def test_prefix_step_matches_tuple_hash(seed, tag, parts, lo, width):
    hi = lo + width
    want = [tuple_hash(seed, tag, *parts, p) for p in range(lo, hi)]
    h = tuple_hash(seed, tag, *parts)
    assert child_hashes(h, lo, hi) == want
    assert odd_children(h, lo, hi) == sum(1 << p for p, x in zip(range(lo, hi), want) if x & 1)


def test_prefix_step_past_its_step_table():
    h = tuple_hash(7, 0x11, 3)
    assert child_hashes(h, 5000, 5003) == [tuple_hash(7, 0x11, 3, p) for p in range(5000, 5003)]


DENSITIES = st.sampled_from([(0, 1), (1, 1), (1, 2), (3, 10), (2, 3), (5, 7)])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 14), DENSITIES, st.integers(0, 10 ** 6))
def test_random_3hg_draws_each_triple(n, density, seed):
    num, den = density
    want = [t for t in combinations(range(n), 3)
            if bernoulli(num, den, seed, TAG_RANDOM_TRIPLE, *t)]
    assert gen_random_3hg(n, num, den, seed).edges() == want


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 5), max_size=4), DENSITIES, st.integers(0, 10 ** 6))
def test_random_multipartite_draws_each_pair(sizes, density, seed):
    num, den = density
    want = [(i, a, j, b)
            for i in range(len(sizes)) for j in range(i + 1, len(sizes))
            for a in range(sizes[i]) for b in range(sizes[j])
            if bernoulli(num, den, seed, TAG_MP_EDGE, i, a, j, b)]
    assert list(gen_random_multipartite(sizes, num, den, seed).iter_edges()) == want


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[st.integers(0, 5)] * 3), DENSITIES, st.integers(0, 10 ** 6))
def test_random_aux_block_draws_each_triple(sizes, density, seed):
    num, den = density
    want = [(a, b, c)
            for a in range(sizes[0]) for b in range(sizes[1]) for c in range(sizes[2])
            if bernoulli(num, den, seed, TAG_AUX_TRIPLE, a, b, c)]
    assert sorted(gen_random_aux_block(sizes, num, den, seed).triples) == want


def test_random_generators_refuse_impossible_probabilities():
    for num, den in [(1, 0), (3, 2), (-1, 2)]:
        for make in (lambda: gen_random_3hg(6, num, den, 0),
                     lambda: gen_random_multipartite([2, 2], num, den, 0),
                     lambda: gen_random_aux_block((2, 2, 2), num, den, 0)):
            with pytest.raises(ValueError, match="probability %d/%d" % (num, den)):
                make()
