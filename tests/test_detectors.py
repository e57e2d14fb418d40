import random
from itertools import combinations

import pytest

from hyperq.core import CapExceeded, Hypergraph3, Hypergraph4
from hyperq.constructions import (
    gen_oriented_4hg,
    gen_party_of_six,
    gen_random_3hg,
    gen_sk_free,
    gen_tournament_3hg,
)
from hyperq.detectors import (
    check_vanishing_condition,
    count_k4_minus,
    embed_small,
    find_clique3,
    find_f4,
    find_k4_minus,
    find_sk,
    is_linear,
    link_colouring_witness,
    three_edge_isomorphism_types,
    verify_vanishing,
)
from hyperq.oracles import naive_count_k4_minus

K4_MINUS = Hypergraph3.from_edges(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])


def witness_is_apex_pattern(h, w):
    rest = [v for v in w.vertices if v != w.apex]
    return all(h.has_edge(w.apex, a, b) for a, b in combinations(rest, 2))


class TestK4Minus:
    def test_complete_ordered(self):
        h = Hypergraph3.complete(4)
        w = find_k4_minus(h, ordered=True)
        assert w.vertices == (0, 1, 2, 3)
        assert w.apex == 0 and w.apex_position == "min"

    def test_tournament_free(self):
        for seed in range(3):
            assert find_k4_minus(gen_tournament_3hg(50, seed)) is None

    def test_random_dense_has_ordered_witness(self):
        h = gen_random_3hg(40, 3, 10, 5)
        w = find_k4_minus(h, ordered=True)
        assert w is not None
        assert w.apex_position in ("min", "max")
        assert witness_is_apex_pattern(h, w)

    def test_ordered_apex_never_interior(self):
        for seed in range(20):
            h = gen_random_3hg(16, 3, 10, seed)
            w = find_k4_minus(h, ordered=True)
            if w is not None:
                assert w.apex in (min(w.vertices), max(w.vertices))

    def test_count_matches_naive(self):
        for seed in range(5):
            h = gen_random_3hg(13, 3, 10, seed)
            assert count_k4_minus(h) == naive_count_k4_minus(h)

    def test_witness_is_least(self):
        h = gen_random_3hg(14, 1, 2, 3)
        w = find_k4_minus(h)
        best = None
        for quad in combinations(range(14), 4):
            for apex in quad:
                rest = [v for v in quad if v != apex]
                if all(h.has_edge(apex, a, b) for a, b in combinations(rest, 2)):
                    cand = (quad, apex)
                    best = cand if best is None or cand < best else best
        assert (w.vertices, w.apex) == best


class TestClique3:
    def test_complete(self):
        assert find_clique3(Hypergraph3.complete(7), 6).vertices == tuple(range(6))

    def test_party_contains_k5_not_k6(self):
        h = gen_party_of_six(40, 1)
        assert find_clique3(h, 5) is not None
        assert find_clique3(h, 6) is None

    def test_witness_spans_all_triples(self):
        h = gen_random_3hg(25, 7, 10, 2)
        w = find_clique3(h, 4)
        assert w is not None
        assert all(h.has_edge(*t) for t in combinations(w.vertices, 3))

    def test_bad_k(self):
        with pytest.raises(ValueError):
            find_clique3(Hypergraph3.complete(5), 3)
        with pytest.raises(CapExceeded):
            find_clique3(Hypergraph3.complete(5), 9)


class TestSk:
    def test_complete_apex_zero(self):
        w = find_sk(Hypergraph3.complete(6), 4)
        assert w.apex == 0 and len(w.vertices) == 5

    def test_sk_free_constructions(self):
        assert find_sk(gen_sk_free(50, 4, 2), 4) is None
        assert find_sk(gen_sk_free(40, 5, 2), 5) is None

    def test_s3_agrees_with_k4_minus(self):
        for seed in range(40):
            h = gen_random_3hg(20, 1, 4, seed)
            assert (find_sk(h, 3) is None) == (find_k4_minus(h) is None)


class TestF4:
    def test_complete(self):
        w = find_f4(Hypergraph4.complete(5))
        assert w is not None and len(w.vertices) == 5

    def test_oriented_free(self):
        assert find_f4(gen_oriented_4hg(30, 4)) is None

    def test_witness_edges_present(self):
        quads = [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4)]
        h = Hypergraph4.from_edges(5, quads)
        w = find_f4(h)
        u, v, x, y, z = w.vertices
        assert {u, v} == {0, 1}
        for a, b in combinations((x, y, z), 2):
            assert h.has_edge(u, v, a, b)


class TestEmbed:
    def test_single_edge(self):
        pattern = Hypergraph3.from_edges(3, [(0, 1, 2)])
        host = Hypergraph3.from_edges(6, [(2, 4, 5)])
        assert embed_small(pattern, host) is not None

    def test_k4_minus_into_tournament(self):
        host = gen_tournament_3hg(40, 6)
        assert embed_small(K4_MINUS, host) is None

    def test_identity_subpattern_always_embeds(self):
        for seed in range(10):
            host = gen_random_3hg(18, 3, 10, seed)
            sub = Hypergraph3.from_edges(7, [tuple(v - 6 for v in e) for e in host.iter_edges()
                                             if e[0] >= 6 and e[-1] < 13])
            if sub.edge_count == 0:
                continue
            assert embed_small(sub, host) is not None

    def test_embedding_maps_edges_to_edges(self):
        host = gen_random_3hg(20, 1, 2, 1)
        pattern = Hypergraph3.from_edges(5, [(0, 1, 2), (1, 2, 3), (2, 3, 4)])
        image = embed_small(pattern, host)
        assert image is not None
        for e in pattern.edges():
            assert host.has_edge(*(image[v] for v in e))

    def test_ordered_embedding_preserves_order(self):
        host = gen_random_3hg(30, 1, 2, 9)
        pattern = Hypergraph3.from_edges(4, [(0, 1, 2), (1, 2, 3)])
        image = embed_small(pattern, host, ordered=True)
        assert image is not None
        assert list(image) == sorted(image)

    def test_oversized_pattern_refused(self):
        with pytest.raises(CapExceeded):
            embed_small(Hypergraph3.empty(9), Hypergraph3.complete(12))


class TestVanishing:
    def test_single_edge(self):
        w = check_vanishing_condition(Hypergraph3.from_edges(3, [(0, 1, 2)]))
        assert w is not None

    def test_two_linear_edges(self):
        pattern = Hypergraph3.from_edges(5, [(0, 1, 2), (2, 3, 4)])
        w = check_vanishing_condition(pattern)
        assert w is not None and verify_vanishing(pattern, w)

    def test_k4_minus_rejected(self):
        assert check_vanishing_condition(K4_MINUS) is None

    def test_relabel_invariance(self):
        rng = random.Random(3)
        pats = [K4_MINUS,
                Hypergraph3.from_edges(5, [(0, 1, 2), (0, 3, 4), (1, 3, 4)]),
                Hypergraph3.from_edges(6, [(0, 1, 2), (2, 3, 4), (0, 4, 5)])]
        for pattern in pats:
            outcome = check_vanishing_condition(pattern) is not None
            for _ in range(20):
                perm = list(range(pattern.n))
                rng.shuffle(perm)
                relabelled = Hypergraph3.from_edges(
                    pattern.n, [tuple(perm[v] for v in e) for e in pattern.edges()])
                assert (check_vanishing_condition(relabelled) is not None) == outcome

    def test_oversized_refused(self):
        with pytest.raises(CapExceeded):
            check_vanishing_condition(Hypergraph3.empty(7))


class TestLinkColouring:
    def test_classes_partition_and_independent(self):
        for k in (4, 5):
            h = gen_sk_free(30, k, 7)
            for apex in range(0, 30, 7):
                rep = link_colouring_witness(h, apex)
                assert len(rep.classes) == k - 1
                covered = sorted(v for cls in rep.classes for v in cls)
                assert covered == [v for v in range(30) if v != apex]
                assert rep.independent

    def test_degenerate_two_vertices(self):
        h = gen_sk_free(2, 4, 0)
        rep = link_colouring_witness(h, 0)
        assert sorted(v for cls in rep.classes for v in cls) == [1]

    def test_missing_metadata(self):
        with pytest.raises(ValueError):
            link_colouring_witness(Hypergraph3.complete(5), 0)


class TestCensus:
    def test_twelve_types(self):
        types = three_edge_isomorphism_types()
        assert len(types) == 12
        assert sorted(t.n for t in types) == [4, 5, 5, 5, 6, 6, 6, 7, 7, 7, 8, 9]
        assert all(t.edge_count == 3 for t in types)

    def test_golden_edge_lists(self):
        """The twelve types, in order, each the first of its class in sorted
        order."""
        assert [t.edges() for t in three_edge_isomorphism_types()] == [
            [(0, 1, 2), (0, 1, 3), (0, 1, 4)],
            [(0, 1, 2), (0, 1, 3), (0, 2, 3)],
            [(0, 1, 2), (0, 1, 3), (0, 2, 4)],
            [(0, 1, 2), (0, 1, 3), (0, 4, 5)],
            [(0, 1, 2), (0, 1, 3), (2, 3, 4)],
            [(0, 1, 2), (0, 1, 3), (2, 4, 5)],
            [(0, 1, 2), (0, 1, 3), (4, 5, 6)],
            [(0, 1, 2), (0, 3, 4), (0, 5, 6)],
            [(0, 1, 2), (0, 3, 4), (1, 3, 5)],
            [(0, 1, 2), (0, 3, 4), (1, 5, 6)],
            [(0, 1, 2), (0, 3, 4), (5, 6, 7)],
            [(0, 1, 2), (3, 4, 5), (6, 7, 8)],
        ]

    def test_contains_apex_pattern_and_disjoint_triple(self):
        types = three_edge_isomorphism_types()
        assert any(t.n == 4 for t in types)
        assert any(t.n == 9 and is_linear(t) for t in types)

    def test_linear_filter(self):
        assert is_linear(Hypergraph3.from_edges(6, [(0, 1, 2), (3, 4, 5)]))
        assert not is_linear(K4_MINUS)
