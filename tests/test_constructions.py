from itertools import combinations, product
from unittest import mock

import pytest

from hyperq import constructions
from hyperq.core import CapExceeded, Hypergraph3
from hyperq.constructions import (
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
    party_of_six_patterns,
    quad_hypergraph_from_orientation,
    sk_free_patterns,
)
from helpers import arcs, pair_direction, tournament_seed


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
    out = h.orientation.out
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
            orient = TripleOrientation(4, lambda x, y, z: table[(x, y, z)])
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
    assert gen_tournament_3hg(10, 0).orientation is not None
    assert gen_leader_tan(10, 0).orientation is not None
