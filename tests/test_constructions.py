import hashlib
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from hyperq import constructions
from hyperq.core import CapExceeded, Hypergraph3, write_hypergraph
from hyperq.constructions import (
    CONSTRUCTIONS,
    PATTERN_K_CAP,
    PairColouring,
    Tournament,
    TripleOrientation,
    colouring_kk_patterns,
    gen_colouring_kk_free,
    gen_leader_tan,
    gen_oriented_4hg,
    gen_party_of_six,
    gen_rainbow_1_27,
    gen_random_3hg,
    gen_sk_free,
    gen_tournament_3hg,
    hypergraph_from_pair_pattern,
    party_of_six_patterns,
    quad_hypergraph_from_orientation,
    sk_free_patterns,
)
from helpers import (
    arcs,
    orientation_from_classes,
    pair_direction,
    pair_pattern_reference,
    quad_rule_reference,
    seeded_class,
    tournament_class,
    tournament_seed,
)

# sha256 of write_hypergraph for each construction at one (n, k, seed)
GOLDENS = {
    ("tournament3", 30, None, 3): "cffe60db74081effacd7183a26c61cd7beb2579d29ea035def4133f4303af271",
    ("colouring-kk", 25, 6, 4): "ddf57b86e0b4902c5cbde88bc7cae4a1dc919f79ec2af8e96bab8eb759fa3a74",
    ("party6", 25, None, 5): "cb1c877b8751e109f8f48692b5ff9c719b8c6dfb15eab15d99edeeef184ce504",
    ("rainbow27", 30, None, 6): "1b08450c4f25dd20f162d35980dbc6042fb72e9c954df034aa7b60e916bb9daa",
    ("sk-free", 25, 6, 7): "f1386aba78765a4fd4b2d0186c993da0f39a67f79ceb10736ae4dd42e991d35b",
    ("oriented4", 18, None, 8): "bd0dcca4446ae769dcacc95eab4b10011534c2c7184eef78d1bd5de6c67911f9",
    ("leader-tan", 18, None, 9): "b678f569f6a7d271b9331bca0ea08bbf9da435d108a921d622489bd838cac5a9",
    ("leader-tan", 44, None, 0): "d630900199a448ed12e1936ec5cb960d1b1aac56ee050183fa883b053e4078f4",
}


def golden_id(case):
    """A construction's first golden is named after it, a further one also by its n."""
    first = min(c for c in GOLDENS if c[0] == case[0])
    return case[0] if case == first else "%s-n%d" % case[:2]


@pytest.mark.parametrize("case", sorted(GOLDENS), ids=golden_id)
def test_construction_golden(case):
    name, n, k, seed = case
    text = write_hypergraph(CONSTRUCTIONS[name](n, k, seed))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDENS[case]


def test_goldens_cover_every_construction():
    assert {case[0] for case in GOLDENS} == set(CONSTRUCTIONS)


def test_determinism():
    a = gen_tournament_3hg(40, 9)
    b = gen_tournament_3hg(40, 9)
    assert a.edges() == b.edges()
    assert a.edges() != gen_tournament_3hg(40, 10).edges()


@pytest.mark.parametrize("make", [
    lambda n, s: gen_tournament_3hg(n, s),
    lambda n, s: gen_colouring_kk_free(n, 4, s),
    lambda n, s: gen_party_of_six(n, s),
    lambda n, s: gen_rainbow_1_27(n, s),
    lambda n, s: gen_sk_free(n, 4, s),
    lambda n, s: gen_sk_free(n, 5, s),
])
def test_restriction_monotone(make):
    big = make(24, 5)
    small = make(15, 5)
    assert [e for e in big.edges() if e[-1] < 15] == small.edges()


def test_restriction_monotone_4uniform():
    for make in (gen_oriented_4hg, gen_leader_tan):
        big = make(16, 3)
        small = make(10, 3)
        assert [e for e in big.edges() if e[-1] < 10] == small.edges()


def test_regular_tournament_gives_five_edges():
    seed = tournament_seed(5, lambda out: all(r.bit_count() == 2 for r in out))
    h = gen_tournament_3hg(5, seed)
    assert h.edge_count == 5


def test_tournament_edges_are_cyclic_triples():
    h = gen_tournament_3hg(12, 2)
    out = Tournament(12, 2).out
    for x, y, z in combinations(range(12), 3):
        arcs = (out[x] >> y & 1) + (out[y] >> z & 1) + (out[z] >> x & 1)
        cyclic = arcs in (0, 3)  # out-degrees 1,1,1 within the triple
        assert h.has_edge(x, y, z) == cyclic


@pytest.mark.parametrize("make", [gen_colouring_kk_free, gen_sk_free])
def test_pattern_k_cap(make):
    """k = PATTERN_K_CAP builds its table; one past it is refused before the
    colouring or the table is built."""
    assert make(6, PATTERN_K_CAP, 1).n == 6
    with mock.patch.object(constructions, "PairColouring", side_effect=AssertionError), \
            pytest.raises(CapExceeded, match="k=%d > cap %d" % (PATTERN_K_CAP + 1, PATTERN_K_CAP)):
        make(6, PATTERN_K_CAP + 1, 1)


def test_colouring_k3_empty():
    assert gen_colouring_kk_free(30, 3, 1).edge_count == 0


def test_colouring_rule_matches_definition():
    h = gen_colouring_kk_free(15, 5, 4)
    phi = h.colouring
    for x, y, z in combinations(range(15), 3):
        assert h.has_edge(x, y, z) == (phi.colour(x, y) != phi.colour(x, z))


def test_party_rule_matches_definition():
    h = gen_party_of_six(15, 8)
    psi = h.colouring
    for x, y, z in combinations(range(15), 3):
        mono = psi.colour(x, y) == psi.colour(x, z) == psi.colour(y, z)
        assert h.has_edge(x, y, z) == (not mono)


def test_rainbow_rule_matches_definition():
    h = gen_rainbow_1_27(15, 6)
    psi = h.colouring
    for x, y, z in combinations(range(15), 3):
        pattern = (psi.colour(x, y), psi.colour(x, z), psi.colour(y, z))
        assert h.has_edge(x, y, z) == (pattern == (0, 1, 2))


def test_rainbow_induced_satisfies_ordering_condition():
    from hyperq.detectors import VanishingWitness, verify_vanishing
    h = gen_rainbow_1_27(40, 13)
    psi = h.colouring
    for lo in range(0, 36, 7):
        members = list(range(lo, lo + 5))
        sub = Hypergraph3.from_edges(5, [tuple(v - lo for v in e) for e in h.iter_edges()
                                         if e[0] >= lo and e[-1] < lo + 5])
        colours = {(a, b): psi.colour(members[a], members[b])
                   for a in range(5) for b in range(a + 1, 5)}
        witness = VanishingWitness(tuple(range(5)), colours)
        assert verify_vanishing(sub, witness)


def test_rainbow_three_vertices_single_edge():
    seed = 0
    while True:
        psi = PairColouring(3, 3, seed)
        if (psi.colour(0, 1), psi.colour(0, 2), psi.colour(1, 2)) == (0, 1, 2):
            break
        seed += 1
    assert gen_rainbow_1_27(3, seed).edge_count == 1


def test_sk_rule_matches_table():
    h = gen_sk_free(15, 4, 3)
    psi = h.colouring
    table = sk_free_patterns(4)
    for x, y, z in combinations(range(15), 3):
        pattern = (psi.colour(x, y), psi.colour(x, z), psi.colour(y, z))
        assert h.has_edge(x, y, z) == (pattern in table)


@st.composite
def pattern_cases(draw):
    kc = draw(st.integers(1, 6))
    colour = st.integers(0, kc - 1)
    allowed = draw(st.sets(st.tuples(colour, colour, colour), max_size=kc ** 3))
    return draw(st.integers(0, 16)), kc, allowed, draw(st.integers(0, 10 ** 6))


@settings(max_examples=150, deadline=None)
@given(pattern_cases())
def test_pattern_builder_matches_per_pattern_scan(case):
    n, kc, allowed, seed = case
    colouring = PairColouring(n, kc, seed)
    h = hypergraph_from_pair_pattern(colouring, allowed)
    assert h._rows == pair_pattern_reference(colouring, allowed)


@pytest.mark.parametrize("make,k", [(gen_colouring_kk_free, 9), (gen_sk_free, 9),
                                    (gen_colouring_kk_free, PATTERN_K_CAP)])
def test_pattern_builder_matches_per_pattern_scan_at_many_colours(make, k):
    h = make(14, k, 2)
    allowed = colouring_kk_patterns(k) if make is gen_colouring_kk_free else sk_free_patterns(k)
    assert h._rows == pair_pattern_reference(h.colouring, allowed)


@pytest.mark.parametrize("pattern", [(0, 1), (0, 1, 2, 0), (0, 0, 3), (-1, 0, 0)])
def test_pattern_builder_refuses_bad_pattern(pattern):
    with pytest.raises(ValueError, match="bad pattern"):
        hypergraph_from_pair_pattern(PairColouring(5, 3, 0), {(0, 1, 2), pattern})


def test_pair_colour_reads_its_table():
    psi = PairColouring(9, 4, 3)
    for u, v in combinations(range(9), 2):
        assert psi.colour(u, v) == psi.colour(v, u)
        assert psi.colour_mask(u, psi.colour(u, v)) >> v & 1
    for u, v in [(2, 2), (-1, 3), (3, 9)]:
        with pytest.raises(ValueError):
            psi.colour(u, v)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 14), st.integers(0, 10 ** 6))
def test_pair_directions_match_class_rules(n, seed):
    assert TripleOrientation.seeded(n, seed).dirs == \
        orientation_from_classes(n, seeded_class(seed)).dirs
    t = Tournament(n, seed)
    assert TripleOrientation.from_tournament(t).dirs == \
        orientation_from_classes(n, tournament_class(t.out)).dirs


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, 1), min_size=n ** 3, max_size=n ** 3))))
def test_quad_builder_matches_six_pair_rule(case):
    n, bits = case
    orient = orientation_from_classes(n, lambda x, y, z: bits[(x * n + y) * n + z])
    assert quad_hypergraph_from_orientation(orient).edges() == quad_rule_reference(orient)


class TestPatternTables:
    def test_sk_counts(self):
        for k in range(4, 9):
            want = (k - 1) * (k - 2) + (k - 1) * (k - 3) ** 2
            assert len(sk_free_patterns(k)) == want

    def test_sk_k4_exact_table(self):
        want = {(a, b, a) for a, b in product(range(3), range(3)) if a != b}
        want |= {(0, 1, 2), (2, 0, 1), (1, 2, 0)}
        assert sk_free_patterns(4) == want

    def test_party_table(self):
        assert len(party_of_six_patterns()) == 6

    def test_colouring_table(self):
        for k in range(4, 8):
            kc = k - 2
            assert len(colouring_kk_patterns(k)) == kc * kc * (kc - 1)


class TestQuadRule:
    def test_all_sixteen_orientations_of_four_triples(self):
        triples = list(combinations(range(4), 3))
        admissible = 0
        for bits in product((0, 1), repeat=4):
            table = dict(zip(triples, bits))
            orient = orientation_from_classes(4, lambda x, y, z: table[(x, y, z)])
            h = quad_hypergraph_from_orientation(orient)
            admissible += h.edge_count
        assert admissible == 2

    def test_paper_style_example_consistency(self):
        # brute re-check of the opposite-traversal rule on random quadruples
        orient = TripleOrientation.seeded(12, 4)
        h = quad_hypergraph_from_orientation(orient)
        for quad in combinations(range(12), 4):
            ok = True
            for u, v in combinations(quad, 2):
                thirds = [w for w in quad if w not in (u, v)]
                d0 = pair_direction(orient, u, v, thirds[0])
                d1 = pair_direction(orient, u, v, thirds[1])
                if d0 == d1:
                    ok = False
                    break
            assert h.has_edge(*quad) == ok

    def test_tournament_derived_rule_consistency(self):
        orient = TripleOrientation.from_tournament(Tournament(10, 8))
        h = quad_hypergraph_from_orientation(orient)
        for quad in combinations(range(10), 4):
            ok = all(pair_direction(orient, u, v, t0) != pair_direction(orient, u, v, t1)
                     for u, v in combinations(quad, 2)
                     for t0, t1 in [[w for w in quad if w not in (u, v)]])
            assert h.has_edge(*quad) == ok

    def test_generator_range(self):
        with pytest.raises(ValueError):
            gen_oriented_4hg(4, 0)
        with pytest.raises(ValueError):
            gen_leader_tan(3, 0)


def tournament_with_arcs(pattern):
    # one arc per pair fixes the whole 3-vertex tournament
    return Tournament(3, tournament_seed(3, lambda out: all(
        out[u] >> v & 1 for u, v in pattern)))


class TestLeaderTanRule:
    def test_worked_cases(self):
        cyclic = tournament_with_arcs([(0, 1), (1, 2), (2, 0)])
        orient = TripleOrientation.from_tournament(cyclic)
        assert arcs(orient, 0, 1, 2) == {(0, 1), (1, 2), (2, 0)}
        transitive = tournament_with_arcs([(0, 1), (0, 2), (1, 2)])
        orient = TripleOrientation.from_tournament(transitive)
        assert arcs(orient, 0, 1, 2) == {(0, 2), (2, 1), (1, 0)}

    def test_odd_agreement_for_all_eight_arc_patterns(self):
        for bits in product((0, 1), repeat=3):
            pattern = [(a, b) if bit else (b, a)
                       for bit, (a, b) in zip(bits, [(0, 1), (1, 2), (2, 0)])]
            orient = TripleOrientation.from_tournament(tournament_with_arcs(pattern))
            chosen = arcs(orient, 0, 1, 2)
            agreements = sum(1 for a in pattern if a in chosen)
            assert agreements % 2 == 1


def test_random_hypergraph_density_near_target():
    h = gen_random_3hg(40, 3, 10, 1)
    assert abs(h.density().density - 0.3) < 0.03


def test_metadata_attached():
    assert gen_sk_free(10, 4, 0).colouring is not None
