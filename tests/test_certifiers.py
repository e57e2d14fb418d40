import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from hyperq.core import CapExceeded, Hypergraph3, Hypergraph4
from hyperq.certifiers import (
    PAIR_SEARCH_HARD_CAP,
    _member_tables,
    bipartite_regularity_deviation,
    pair_deviation,
    quad_vertex_deviation,
    relative_density,
    sample_sets,
    triangle_bound_check,
    weak_deviation,
    xyz_deviation,
)
from hyperq.constructions import (
    gen_colouring_kk_free,
    gen_random_3hg,
    gen_tournament_3hg,
)
from hyperq.multipartite import MultipartiteGraph, gen_random_multipartite
from hyperq.oracles import (
    enumerate_pair_deviation,
    naive_bipartite_deviation,
    naive_weak_deviation,
)


# each certifier on a small input of its kind, at density d, with the
# certifier's own options
CERTIFY_AT = {
    "weak": lambda d, **kw: weak_deviation(gen_random_3hg(6, 1, 2, 0), d, **kw),
    "xyz": lambda d: xyz_deviation(gen_random_3hg(6, 1, 2, 0), d),
    "pair": lambda d, **kw: pair_deviation(gen_random_3hg(6, 1, 2, 0), d, **kw),
    "quad": lambda d: quad_vertex_deviation(Hypergraph4.from_edges(5, [(0, 1, 2, 3)]), d),
    "bipartite": lambda d, **kw: bipartite_regularity_deviation(
        gen_random_multipartite([6, 9], 1, 2, 1), d, **kw),
    "triangle-bound": lambda d: triangle_bound_check(
        gen_random_multipartite([3, 3, 3], 1, 2, 0), d),
}


@pytest.mark.parametrize("d", [Fraction(-3), Fraction(3, 2), -3, "3/2", 1.5], ids=repr)
@pytest.mark.parametrize("kind", sorted(CERTIFY_AT))
def test_density_outside_unit_interval_refused(kind, d):
    # the field widths of the exact walks hold only for 0 <= d <= 1
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        CERTIFY_AT[kind](d)


@pytest.mark.parametrize("d", [None, Fraction(1, 3)], ids=repr)
@pytest.mark.parametrize("kind,options", [
    ("xyz", {}), ("quad", {})] + [
    (kind, {"mode": mode}) for kind in ("weak", "pair", "bipartite")
    for mode in ("exact", "search")], ids=str)
def test_eta_is_rounded_once(kind, options, d):
    rep = CERTIFY_AT[kind](d, **options)
    assert rep.eta == float(rep.max_deviation / rep.normalizer)


@pytest.mark.parametrize("w", [1, 2, 9])
@pytest.mark.parametrize("low", range(7))
def test_member_tables(low, w):
    """Field A of member table a holds [a in A], and the ones table 2^low
    fields of 1; 9-byte fields are wider than a native slot."""
    ones, members = _member_tables(low, w)
    field = (1 << 8 * w) - 1
    assert len(members) == low
    for a, table in enumerate(members):
        assert table >> (8 * w << low) == 0
        assert [table >> 8 * w * s & field for s in range(1 << low)] == \
            [s >> a & 1 for s in range(1 << low)]
    assert ones == sum(1 << 8 * w * s for s in range(1 << low))


def record_calls(monkeypatch, cls, name) -> list:
    """The list that every later call of method ``name`` of ``cls`` appends
    its arguments to, as the benchmark tracer wraps the class attribute."""
    calls = []
    method = getattr(cls, name)

    def counted(self, *args):
        calls.append(args)
        return method(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return calls


class TestWeakDeviation:
    def test_complete_zero(self):
        rep = weak_deviation(Hypergraph3.complete(8), Fraction(1))
        assert rep.max_deviation == 0 and rep.method == "exact"

    def test_empty_zero(self):
        assert weak_deviation(Hypergraph3.empty(8), Fraction(0)).max_deviation == 0

    def test_single_edge(self):
        h = Hypergraph3.from_edges(3, [(0, 1, 2)])
        rep = weak_deviation(h, Fraction(0))
        assert rep.max_deviation == 1
        assert rep.witness == (0, 1, 2)
        assert rep.eta == 1 / 27

    def test_tournament_matches_naive_oracle(self):
        h = gen_tournament_3hg(12, 7)
        rep = weak_deviation(h, Fraction(1, 4))
        value, _ = naive_weak_deviation(h, Fraction(1, 4))
        assert rep.max_deviation == value

    def test_search_never_exceeds_exact(self):
        for seed in range(8):
            h = gen_random_3hg(10, 2, 5, seed)
            d = h.density().density_fraction
            exact = weak_deviation(h, d).max_deviation
            found = weak_deviation(h, d, mode="search", restarts=6,
                                   seed=seed).max_deviation
            assert found <= exact

    def test_edge_insertion_moves_maximum_slowly(self):
        rng = random.Random(5)
        for seed in range(6):
            h = gen_random_3hg(9, 1, 2, seed)
            d = Fraction(2, 5)
            non_edges = [t for t in
                         __import__("itertools").combinations(range(9), 3)
                         if not h.has_edge(*t)]
            extra = non_edges[rng.randrange(len(non_edges))]
            bigger = Hypergraph3.from_edges(9, h.edges() + [extra])
            before = weak_deviation(h, d).max_deviation
            after = weak_deviation(bigger, d).max_deviation
            assert abs(after - before) <= 1 + d

    def test_cap_refusal(self):
        with pytest.raises(CapExceeded):
            weak_deviation(Hypergraph3.empty(30), Fraction(0), mode="exact")

    def test_negative_restarts_refused(self):
        # they used to report a deviation of 0 over -1 restarts
        h = gen_tournament_3hg(8, 0)
        with pytest.raises(ValueError, match="restarts"):
            weak_deviation(h, mode="search", restarts=-1)
        with pytest.raises(ValueError, match="restarts"):
            pair_deviation(h, mode="search", restarts=-3)
        # the sign-split engine refuses them in exact mode too, as weak does
        with pytest.raises(ValueError, match="restarts"):
            pair_deviation(h, mode="exact", restarts=-1)
        with pytest.raises(ValueError, match="restarts"):
            CERTIFY_AT["bipartite"](None, mode="exact", restarts=-1)
        assert weak_deviation(h, mode="search", restarts=0).max_deviation == 0

    def test_search_eta_matches_exact(self):
        # both modes find 14/3 here; the search once rounded its eta twice
        h = gen_random_3hg(9, 3, 10, 1)
        exact = weak_deviation(h)
        found = weak_deviation(h, mode="search", restarts=8, seed=1)
        assert (found.max_deviation, found.eta) == (exact.max_deviation, exact.eta)


class TestXyzDeviation:
    def test_complete_disjoint_zero(self):
        h = Hypergraph3.complete(9)
        cnt = h.count_ordered_triples(range(3), range(3, 6), range(6, 9))
        assert cnt == 27
        rep = xyz_deviation(h, Fraction(1), samples=40, seed=0, disjoint=True)
        assert rep.max_deviation == 0

    @pytest.mark.parametrize("disjoint", [False, True])
    @pytest.mark.parametrize("steps", [0, 32])
    def test_one_count_call_per_sample(self, monkeypatch, steps, disjoint):
        # the benchmark tracer reads certifiers.xyz_deviation.evaluations
        # from these calls; the improve pass makes none
        calls = record_calls(monkeypatch, Hypergraph3, "count_ordered_triples")
        h = gen_tournament_3hg(12, 1)
        for k in (1, 7, 30):
            calls.clear()
            rep = xyz_deviation(h, Fraction(1, 4), samples=k, seed=k, improve_steps=steps,
                                disjoint=disjoint)
            assert len(calls) == k
            assert (rep.trials["improve_steps"] > 0) == (steps > 0)

    def test_single_edge_value(self):
        h = Hypergraph3.from_edges(3, [(0, 1, 2)])
        rep = xyz_deviation(h, Fraction(0), samples=10, seed=1)
        assert rep.max_deviation >= 1

    def test_sieve_bound_on_disjoint_samples(self):
        h = gen_random_3hg(11, 3, 10, 3)
        d = h.density().density_fraction
        bound = 7 * weak_deviation(h, d).max_deviation
        rng = random.Random(0)
        for _ in range(400):
            x, y, z = sample_sets(rng, 11, disjoint=True)
            e = h.count_ordered_triples(x, y, z)
            gap = abs(Fraction(e) - d * (x.bit_count() * y.bit_count() * z.bit_count()))
            assert gap <= bound

    def test_report_is_lower_bound_certificate(self):
        h = gen_random_3hg(10, 1, 2, 2)
        d = h.density().density_fraction
        rep = xyz_deviation(h, d, samples=50, seed=4)
        x, y, z = (sum(1 << v for v in part) for part in rep.witness)
        e = h.count_ordered_triples(x, y, z)
        recomputed = abs(Fraction(e) - d * (x.bit_count() * y.bit_count() * z.bit_count()))
        assert recomputed == rep.max_deviation

    def test_certifiers_share_packed_view(self):
        h = gen_tournament_3hg(20, 1)
        first = xyz_deviation(h, Fraction(1, 4), samples=20, seed=2)
        view = h._packed
        assert view is not None
        weak_deviation(h, Fraction(1, 4), mode="search", restarts=3)
        assert xyz_deviation(h, Fraction(1, 4), samples=20, seed=2) == first
        assert h._packed is view


class TestPairDeviation:
    def test_empty_zero(self):
        assert pair_deviation(Hypergraph3.empty(7), Fraction(0)).max_deviation == 0

    def test_complete_matches_oracle_and_formula(self):
        h = Hypergraph3.complete(7)
        rep = pair_deviation(h, Fraction(1))
        assert rep.max_deviation == enumerate_pair_deviation(h, Fraction(1))
        assert rep.max_deviation == 7 * 6  # all pairs, U = V, residual -|U & p|

    def test_matches_full_enumeration(self):
        for seed in range(6):
            h = gen_random_3hg(6 + seed % 3, 1, 2, seed)
            d = h.density().density_fraction
            assert pair_deviation(h, d).max_deviation == \
                enumerate_pair_deviation(h, d)

    def test_witness_value_recomputes(self):
        h = gen_colouring_kk_free(16, 4, 3)
        rep = pair_deviation(h, Fraction(1, 2), mode="exact")
        members, x_pairs = rep.witness
        size = len(members)
        umask = sum(1 << v for v in members)
        total = sum(Fraction((h.link_row(u, v) & umask).bit_count())
                    - Fraction(1, 2) * size for u, v in x_pairs)
        assert abs(total) == rep.max_deviation

    def test_sampled_sets_never_beat_exact(self):
        h = gen_colouring_kk_free(12, 4, 5)
        d = Fraction(1, 2)
        exact = pair_deviation(h, d).max_deviation
        rng = random.Random(1)
        pairs = [(u, v) for u in range(12) for v in range(u + 1, 12)]
        for _ in range(200):
            umask = rng.getrandbits(12)
            xs = [p for p in pairs if rng.random() < 0.5]
            size = umask.bit_count()
            val = abs(sum((h.link_row(u, v) & umask).bit_count() - d * size
                          for u, v in xs))
            assert val <= exact

    def test_search_never_exceeds_exact(self):
        h = gen_random_3hg(9, 2, 5, 11)
        d = h.density().density_fraction
        exact = pair_deviation(h, d).max_deviation
        assert pair_deviation(h, d, mode="search", restarts=4,
                              seed=2).max_deviation <= exact

    def test_cap_refusal(self):
        with pytest.raises(CapExceeded):
            pair_deviation(Hypergraph3.empty(21), Fraction(0), mode="exact")

    def test_refusal_allocates_nothing(self):
        h = gen_tournament_3hg(200, 0)
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded) as err:
                pair_deviation(h, mode="exact")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == "exact pair deviation refused for n=200 > cap 20"
        assert peak < 1 << 20

    def test_search_refusal_allocates_nothing(self):
        h = gen_tournament_3hg(PAIR_SEARCH_HARD_CAP + 1, 0)
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded) as err:
                pair_deviation(h, mode="search")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == "pair deviation search refused for n=201 > cap 200"
        assert peak < 1 << 20


class TestQuadDeviation:
    def test_single_edge_singletons(self):
        h = Hypergraph4.from_edges(5, [(0, 1, 2, 3)])
        assert h.count_ordered_quadruples([0], [1], [2], [3]) == 1
        rep = quad_vertex_deviation(h, Fraction(0), samples=30, seed=0)
        assert rep.max_deviation >= 1

    def test_complete_disjoint_zero(self):
        h = Hypergraph4.complete(8)
        cnt = h.count_ordered_quadruples([0, 1], [2, 3], [4, 5], [6, 7])
        assert cnt == 16

    # recorded before the packed-view count; witness sets as vertex masks
    @pytest.mark.parametrize("n,seed,deviation,eta,masks", [
        (44, 0, Fraction(9331), 0.002489530684379482,
         (0xf7d5f26aef8, 0x9bf7b9cee29, 0x80ff1357db2, 0x7ce3f507f8d)),
        (70, 1, Fraction(109047, 4), 0.001135433152852978,
         (0x37c375dfa76873ebe9, 0x16c8721d3f78837a5d, 0x17b55bfa6b36901a9a,
          0x65b7ab38e5f15e6bd)),
    ])
    def test_oriented_golden(self, n, seed, deviation, eta, masks):
        from hyperq.constructions import gen_oriented_4hg
        rep = quad_vertex_deviation(gen_oriented_4hg(n, seed), Fraction(1, 8), samples=100,
                                    seed=seed)
        assert (rep.max_deviation, rep.eta, rep.normalizer) == (deviation, eta, n ** 4)
        assert rep.witness == tuple(tuple(v for v in range(n) if m >> v & 1) for m in masks)
        assert rep.trials == {"samples": 100, "improve_steps": 0}

    def test_one_count_call_per_sample(self, monkeypatch):
        # the benchmark tracer reads certifiers.quad_vertex_deviation.evaluations
        # from these calls
        calls = record_calls(monkeypatch, Hypergraph4, "count_ordered_quadruples")
        h = Hypergraph4.complete(9)
        for k in (1, 7, 30):
            calls.clear()
            quad_vertex_deviation(h, Fraction(1, 8), samples=k, seed=k)
            assert len(calls) == k

    def test_oriented_construction_concentrates(self):
        from hyperq.constructions import gen_oriented_4hg
        h = gen_oriented_4hg(60, 3)
        rep = quad_vertex_deviation(h, Fraction(1, 8), samples=500, seed=1)
        assert rep.eta <= 0.01


class TestBipartiteDeviation:
    def test_complete_zero(self):
        g = gen_random_multipartite([6, 6], 1, 1, 0)
        assert bipartite_regularity_deviation(g, Fraction(1)).max_deviation == 0

    def test_empty_zero(self):
        g = MultipartiteGraph([6, 6])
        assert bipartite_regularity_deviation(g, Fraction(0)).max_deviation == 0

    def test_matches_naive_double_enumeration(self):
        g = gen_random_multipartite([10, 10], 1, 2, 3)
        rep = bipartite_regularity_deviation(g, Fraction(1, 2))
        assert rep.max_deviation == naive_bipartite_deviation(g, Fraction(1, 2))

    def test_search_never_exceeds_exact(self):
        g = gen_random_multipartite([9, 9], 1, 3, 5)
        d = Fraction(1, 3)
        exact = bipartite_regularity_deviation(g, d).max_deviation
        found = bipartite_regularity_deviation(g, d, mode="search", restarts=4,
                                               seed=1).max_deviation
        assert found <= exact

    def test_cap_refusal(self):
        g = MultipartiteGraph([25, 5])
        with pytest.raises(CapExceeded):
            bipartite_regularity_deviation(g, Fraction(0), mode="exact")


class TestTriangleBound:
    def test_complete_tripartite_equality(self):
        g = gen_random_multipartite([3, 4, 5], 1, 1, 0)
        rep = triangle_bound_check(g, Fraction(1), enum_side=3)
        assert rep.count == 3 * 4 * 5
        assert rep.holds and rep.delta2_hat == 0 and rep.bound == 60

    def test_random_instances_respect_bound(self):
        for seed in range(5):
            g = gen_random_multipartite([12, 12, 12], 1, 4, seed)
            rep = triangle_bound_check(g, Fraction(1, 4), enum_side=12)
            assert rep.holds

    # (sizes, indices into per_pair_delta of the pairs with an empty side);
    # with [4, 0, 4] the default d2 comes from the empty pair (0, 1)
    @pytest.mark.parametrize("sizes,empty", [([4, 4, 0], (1, 2)), ([4, 0, 4], (0, 2))])
    @pytest.mark.parametrize("d2", [Fraction(1, 2), None])
    def test_empty_part(self, sizes, empty, d2):
        g = gen_random_multipartite(sizes, 1, 2, 0)
        rep = triangle_bound_check(g, d2)
        assert rep.count == 0 and rep.bound == 0 and rep.holds
        assert all(rep.per_pair_delta[e] == 0 for e in empty)
        if d2 is None:
            assert rep.d2 == g.pair_density(0, 1)


class TestRelativeDensity:
    def test_complete_everything(self):
        h = Hypergraph3.complete(9)
        g = gen_random_multipartite([3, 3, 3], 1, 1, 0)
        parts = [range(3), range(3, 6), range(6, 9)]
        assert relative_density(h, g, parts) == 1

    def test_no_triangles_convention(self):
        h = Hypergraph3.complete(6)
        g = MultipartiteGraph([2, 2, 2])
        assert relative_density(h, g, [range(2), range(2, 4), range(4, 6)]) == 0

    def test_tournament_quarter(self):
        h = gen_tournament_3hg(60, 12)
        g = gen_random_multipartite([20, 20, 20], 1, 1, 0)
        parts = [range(20), range(20, 40), range(40, 60)]
        value = relative_density(h, g, parts)
        assert abs(float(value) - 0.25) < 0.05

    @pytest.mark.parametrize("parts,vertex", [
        ([[0], [1], [99]], "99 out of range [0, 4)"),
        ([[0], [1], [-1]], "-1 out of range [0, 4)"),
        ([[0], [1], [1]], "1 listed twice"),
        ([[2], [0], [2]], "2 listed twice"),
    ])
    def test_bad_part_vertex_refused(self, parts, vertex):
        """A vertex outside the hypergraph or listed twice is named, never
        read as 0 or through a negative shift."""
        h = Hypergraph3.complete(4)
        g = gen_random_multipartite([1, 1, 1], 1, 1, 0)
        assert relative_density(h, g, [[0], [1], [2]]) == 1
        with pytest.raises(ValueError, match=re.escape("vertex " + vertex)):
            relative_density(h, g, parts)

    @pytest.mark.parametrize("parts", [(0, 1, 7), (0, 0, 1), (3, 1, 3), (0, 1)])
    def test_bad_part_triple_refused(self, parts):
        """Parts that are not three distinct parts of g raise ValueError, not
        IndexError."""
        h = Hypergraph3.complete(12)
        g = gen_random_multipartite([3, 3, 3, 3], 1, 1, 0)
        with pytest.raises(ValueError, match="part triple"):
            relative_density(h, g, [range(3), range(3, 6), range(6, 9)], parts)
