import hashlib
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hyperq.cli import main
from hyperq.core import CapExceeded, ParseError
from hyperq.multipartite import (
    MP_MAX_PARTS,
    MP_MAX_VERTICES,
    AuxiliaryHypergraph,
    MultipartiteGraph,
    TripartiteTriples,
    count_triangles_mp,
    explore_extremal,
    find_three_triples,
    find_triangle_mp,
    gen_random_aux_block,
    gen_random_multipartite,
    half_split,
    mean_square_profile,
    project_auxiliary,
    proof_diagnostics,
    read_multipartite,
    write_multipartite,
)
import helpers
from helpers import explore_reference, gen_random_auxiliary, has_triple

# explore_extremal(3, 12, restarts=40, seed=0), written out
GOLDEN_GRAPH = "a448cfc45e3de39425b550aeb253f54e567ef2864111afa8ef061f427bcc86dc"


def test_pair_density():
    g = MultipartiteGraph([2, 3, 0])
    g.add_edge(0, 0, 1, 2)
    g.add_edge(1, 1, 0, 1)
    assert g.pair_density(0, 1) == g.pair_density(1, 0) == Fraction(2, 6)
    assert g.pair_density(0, 2) == g.pair_density(2, 1) == 0


@pytest.mark.parametrize("query,message", [
    ((0, -1, 1, 2), "no vertex -1 in part 0"),
    ((0, 1, 1, -1), "no vertex -1 in part 1"),
    ((0, 1, 1, 3), "no vertex 3 in part 1"),
    ((2, 0, 1, 2), "no vertex 0 in part 2"),
    ((0, 1, 0, 0), "vertices 1 and 0 both lie in part 0"),
])
def test_has_edge_refuses_a_missing_vertex(query, message):
    """A vertex index never wraps around its part or reads past it, and a
    pair inside one part is no slot of an edge."""
    g = MultipartiteGraph([2, 3])
    g.add_edge(0, 1, 1, 2)
    assert g.has_edge(0, 1, 1, 2) and g.has_edge(1, 2, 0, 1)
    assert not g.has_edge(0, 0, 1, 2)
    with pytest.raises(ValueError, match=re.escape(message)):
        g.has_edge(*query)
    with pytest.raises(ValueError, match=re.escape(message)):
        g.add_edge(*query)


@pytest.mark.parametrize("pair", [(0, 0), (-1, 1), (1, -1), (0, 2)])
def test_part_rows_refuses_a_missing_pair(pair):
    """A part index never wraps around, and a part has no edges to itself:
    the readers of a part pair refuse both."""
    g = gen_random_multipartite([2, 3], 1, 1, 0)
    assert g.part_rows(0, 1) == [7, 7] and g.part_rows(1, 0) == [3, 3, 3]
    for read in (g.part_rows, g.pair_density):
        with pytest.raises(ValueError, match=re.escape("no pair of distinct parts %r" % (pair,))):
            read(*pair)


class TestProfile:
    def test_complete(self):
        g = gen_random_multipartite([5, 6, 7], 1, 1, 0)
        prof = mean_square_profile(g)
        assert all(r == 1 for r in prof.ratios.values())

    def test_empty(self):
        prof = mean_square_profile(MultipartiteGraph([4, 4]))
        assert all(r == 0 for r in prof.ratios.values())

    def test_half_split_exact_quarter(self):
        prof = mean_square_profile(half_split(4, 10))
        assert all(r == Fraction(1, 4) for r in prof.ratios.values())

    def test_empty_part_rejected(self):
        with pytest.raises(ValueError):
            mean_square_profile(MultipartiteGraph([3, 0]))


class TestHalfSplit:
    def test_edge_count(self):
        assert len(list(half_split(3, 10).iter_edges())) == 150

    def test_triangle_free(self):
        for m in (3, 4, 5):
            assert count_triangles_mp(half_split(m, 12)) == 0
            assert find_triangle_mp(half_split(m, 8)) is None
        assert count_triangles_mp(half_split(6, 20)) == 0

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            half_split(3, 7)


class TestTriangleSearch:
    def test_complete_tripartite(self):
        g = gen_random_multipartite([3, 3, 3], 1, 1, 0)
        assert find_triangle_mp(g) == ((0, 0), (1, 0), (2, 0))

    def test_dense_random_always_finds(self):
        for seed in range(10):
            g = gen_random_multipartite([30, 30, 30], 7, 10, seed)
            assert find_triangle_mp(g) is not None


class TestTriangleCount:
    def test_complete_tripartite(self):
        g = gen_random_multipartite([3, 4, 5], 1, 1, 0)
        assert count_triangles_mp(g, (0, 1, 2)) == 3 * 4 * 5
        assert count_triangles_mp(g, (2, 0, 1)) == 3 * 4 * 5

    def test_empty_part(self):
        assert count_triangles_mp(MultipartiteGraph([4, 4, 0]), (0, 1, 2)) == 0

    @pytest.mark.parametrize("parts", [(0, 0, 1), (0, 1, 5), (0, 1), (0, 1, 2, 3), (-1, 0, 1)])
    def test_bad_part_triple_refused(self, parts):
        """Parts that are not three distinct parts are refused, never counted
        with a part twice in the mask or read past the offsets."""
        g = gen_random_multipartite([3, 3, 3, 3], 1, 1, 0)
        with pytest.raises(ValueError, match="part triple"):
            count_triangles_mp(g, parts)


class TestDiagnostics:
    def test_complete_reaches_cap(self):
        g = gen_random_multipartite([8, 8], 1, 1, 0)
        diag = proof_diagnostics(g, Fraction(1, 10))
        assert diag.r_max == 5
        assert diag.r_value[(0, 1)] == 5

    def test_empty_has_no_valid_r(self):
        diag = proof_diagnostics(MultipartiteGraph([8, 8]), Fraction(1, 10))
        assert diag.r_value[(0, 1)] == 0
        assert all(s == 0 for s in diag.q_sizes[(0, 1)])

    def test_half_split_first_step_empty(self):
        diag = proof_diagnostics(half_split(3, 12), Fraction(1, 20), Fraction(1, 100))
        assert all(sizes[0] == 0 for sizes in diag.q_sizes.values())
        assert not diag.claim_violations

    def test_high_degree_sets_nested(self):
        g = gen_random_multipartite([10, 10], 3, 5, 4)
        diag = proof_diagnostics(g, Fraction(1, 8))
        for sizes in diag.q_sizes.values():
            assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_delta_range(self):
        g = gen_random_multipartite([4, 4], 1, 2, 0)
        with pytest.raises(ValueError):
            proof_diagnostics(g, Fraction(1, 2))

    @settings(max_examples=80, deadline=None)
    @given(sizes=st.lists(st.integers(1, 7), min_size=2, max_size=4),
           p=st.integers(0, 4), seed=st.integers(0, 10 ** 6),
           eps=st.none() | st.fractions(0, 1, max_denominator=40))
    def test_hypothesis_matches_profile(self, sizes, p, seed, eps):
        """The verdict read off the sorted degree lists is the profile's, also
        where a ratio meets its threshold exactly (eps None)."""
        g = gen_random_multipartite(sizes, p, 4, seed)
        if eps is None:
            eps = max(Fraction(0), mean_square_profile(g).ratios[(0, 1)] - Fraction(1, 4))
        diag = proof_diagnostics(g, Fraction(1, 10), eps)
        assert diag.hypothesis_holds == mean_square_profile(g, eps).satisfied


class TestProjection:
    def test_full_block_both_hold(self):
        full = [(a, b, c) for a in range(4) for b in range(4) for c in range(4)]
        rep = project_auxiliary(TripartiteTriples((4, 4, 4), full), Fraction(1, 10))
        assert rep.left_holds and rep.right_holds
        assert rep.colour == "green" and rep.flagged == "both-hold"

    def test_empty_block_flagged(self):
        rep = project_auxiliary(TripartiteTriples((4, 4, 4), []), Fraction(0))
        assert not rep.left_holds and not rep.right_holds
        assert rep.colour is None and rep.flagged == "neither-holds"

    def test_cauchy_schwarz_consequence(self):
        eps = Fraction(1, 20)
        for seed in range(60):
            blk = gen_random_aux_block((8, 9, 10), 2, 5, seed)
            rep = project_auxiliary(blk, eps)
            if rep.premise_holds:
                assert rep.left_holds or rep.right_holds


class TestThreeTriples:
    def test_full_auxiliary(self):
        aux = gen_random_auxiliary(4, 3, 1, 1, 0)
        cfg = find_three_triples(aux)
        assert cfg is not None and cfg.apex_extreme
        assert cfg.indices[3] == 3 and cfg.indices[:3] == (0, 1, 2)

    def test_config_triples_present(self):
        aux = gen_random_auxiliary(5, 4, 3, 5, 1)
        cfg = find_three_triples(aux)
        assert cfg is not None
        i1, i2, i3, hub = cfg.indices
        for x, y in ((i1, i2), (i1, i3), (i2, i3)):
            keys = [tuple(sorted((x, y))), tuple(sorted((x, hub))),
                    tuple(sorted((y, hub)))]
            assert has_triple(aux, {k: cfg.vertices[k] for k in keys})

    def test_empty(self):
        sizes = {(i, j): 3 for i in range(4) for j in range(i + 1, 4)}
        assert find_three_triples(AuxiliaryHypergraph(4, sizes, {})) is None

    def test_extreme_hub_preferred_globally(self):
        # one interior-hub configuration inside {0,1,2,3} (hub 1) and one
        # extreme-hub configuration inside {0,1,2,4} (hub 4)
        sizes = {(i, j): 1 for i in range(5) for j in range(i + 1, 5)}
        present = [(0, 1, 2), (0, 1, 3), (1, 2, 3),
                   (0, 1, 4), (0, 2, 4), (1, 2, 4)]
        blocks = {key: [(0, 0, 0)] for key in present}
        cfg = find_three_triples(AuxiliaryHypergraph(5, sizes, blocks))
        assert cfg is not None and cfg.apex_extreme
        assert cfg.indices == (0, 1, 2, 4)

    @pytest.mark.parametrize("sizes,blocks,message", [
        ({(0, 1): 2, (1, 0): 5}, {}, "class key (1, 0) sorts to one given earlier"),
        ({(1, 1): 3}, {}, "class key (1, 1) is not 2 distinct"),
        ({(0, 1, 2): 3}, {}, "class key (0, 1, 2) is not 2 distinct"),
        ({}, {(0, 1, 2): [], (2, 1, 0): []}, "block key (2, 1, 0) sorts to one given earlier"),
        ({}, {(0, 1, 9): []}, "block key (0, 1, 9) is not 3 distinct"),
        ({}, {(0, 1): []}, "block key (0, 1) is not 3 distinct"),
        ({}, {(0, 1, 2): [(0, 0, 0), (0, 0, 0)]},
         "block (0, 1, 2): triple (0, 0, 0) listed twice"),
    ])
    def test_keys_and_triples_refused(self, sizes, blocks, message):
        """A key that is not distinct indices of range(m), one that sorts to
        a key given earlier and a triple listed twice are each refused by
        name, never merged or dropped."""
        sizes = {**{(i, j): 1 for i in range(4) for j in range(i + 1, 4)}, **sizes}
        with pytest.raises(ValueError, match=re.escape(message)):
            AuxiliaryHypergraph(4, sizes, blocks)

    def test_budget_refusal(self):
        sizes = {(i, j): 3 for i in range(9) for j in range(i + 1, 9)}
        with pytest.raises(CapExceeded):
            find_three_triples(AuxiliaryHypergraph(9, sizes, {}))


class TestExplorer:
    def test_never_below_baseline(self):
        res = explore_extremal(3, 8, restarts=8, seed=3, moves=120)
        assert res.min_ratio >= Fraction(1, 4)
        assert count_triangles_mp(res.graph) == 0

    def test_bipartite_reaches_complete(self):
        res = explore_extremal(2, 4, restarts=4, seed=0, moves=400)
        assert res.min_ratio == 1

    def test_budget(self):
        with pytest.raises(CapExceeded):
            explore_extremal(9, 8)

    def test_golden(self):
        res = explore_extremal(3, 12, restarts=40, seed=0)
        text = write_multipartite(res.graph)
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_GRAPH
        assert (res.min_ratio, res.accepted_moves) == (Fraction(1, 4), 0)

    def test_reference_golden(self, monkeypatch):
        """The reference climb ends where the explorer's golden does, after
        removing the 8,088 edges, in order, that the climb's swaps and
        rejections removed when the explorer still ran it."""
        removed = []
        remove = helpers._remove_edge

        def logged(g, *edge):
            removed.append(edge)
            remove(g, *edge)

        monkeypatch.setattr(helpers, "_remove_edge", logged)
        graph, ratio, accepted = explore_reference(3, 12, restarts=40, seed=0)
        text = write_multipartite(graph)
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_GRAPH
        assert (ratio, accepted) == (Fraction(1, 4), 0)
        assert len(removed) == 8088
        assert hashlib.sha256(repr(removed).encode()).hexdigest() == \
            "a2a791985aa5c0cbc00f40cab630a1c6aa1c541c4a02fad924251f39995d4fd6"

    @settings(max_examples=120, deadline=None)
    @given(m=st.integers(2, 7), s=st.integers(1, 8).map(lambda h: 2 * h),
           restarts=st.integers(0, 6), moves=st.integers(0, 400),
           eps=st.one_of(st.none(), st.just(Fraction(0)),
                         st.fractions(-1, 1, max_denominator=64)),
           seed=st.integers(0, 2 ** 32))
    def test_matches_reference(self, m, s, restarts, moves, eps, seed):
        res = explore_extremal(m, s, eps, restarts, seed, moves)
        graph, ratio, accepted = explore_reference(m, s, eps, restarts, seed, moves)
        assert write_multipartite(res.graph) == write_multipartite(graph)
        assert (res.min_ratio, res.accepted_moves) == (ratio, accepted)


class TestCaps:
    def test_at_the_caps(self):
        assert MultipartiteGraph([0] * MP_MAX_PARTS).m == MP_MAX_PARTS
        assert MultipartiteGraph([MP_MAX_VERTICES - 1, 1]).sizes[0] == MP_MAX_VERTICES - 1

    @pytest.mark.parametrize("sizes", [
        [0] * (MP_MAX_PARTS + 1),
        [MP_MAX_VERTICES, 1],
    ], ids=["parts", "vertices"])
    def test_one_past_a_cap_refused(self, sizes):
        with pytest.raises(CapExceeded):
            MultipartiteGraph(sizes)


class TestSerialization:
    def test_round_trip(self):
        g = gen_random_multipartite([4, 5, 6], 1, 2, 7)
        text = write_multipartite(g)
        again = read_multipartite(text)
        assert write_multipartite(again) == text

    @pytest.mark.parametrize("text,fragment", [
        ("xx 2 3 3\n", "header"),
        ("mp 2 3\n", "part sizes"),
        ("mp 2 3 3\n1 0 0 0\n", "i < j"),
        ("mp 2 3 3\n0 5 1 0\n", "out of range"),
        ("mp 2 3 3\n0 0 1 0\n0 0 1 0\n", "duplicate"),
        ("mpx 2 1 1\n", "'mp' header"),
        ("", "'mp' header"),
        ("mp\n", "header must be"),
        ("mp +2 1 1\n", "header must be"),
        ("mp 2 1 \u0661\n", "header must be"),
        ("mp 2 1 1\n+0 0 1 0\n", "ASCII digits"),
        ("mp 2 1 1\n0 0 1_0 0\n", "ASCII digits"),
        ("mp 2 1 1\n0 0 1 \u0660\n", "ASCII digits"),
        ("mp 2 1 1\n0 -0 1 0\n", "ASCII digits"),
        ("mp 2 1 1\n0\x0c0 1 0\n", "expected '<i> <a> <j> <b>'"),
        ("mp 2 1 1\n0 %s 1 0\n" % ("1" * 5000), "ASCII digits"),
    ])
    def test_errors(self, text, fragment):
        with pytest.raises(ParseError) as err:
            read_multipartite(text)
        assert fragment in str(err.value)

    def test_layouts(self):
        """Runs of spaces or tabs between fields or at either end of a line,
        the first one included, LF, CRLF or CR line endings, and leading
        zeros, read as the canonical text does."""
        text = "mp 2 1 2\n0 0 1 1\n"
        for variant in ("mp\t2  1 2\r\n 0 0 1\t1 \r\n", "mp 2 1 2\r0 0 1 1",
                        "mp 2 01 2\n0 0 1 1\n", " mp 2 1 2\n0 0 1 1\n",
                        "\tmp 2 1 2\n0 0 1 1\n", "mp 2 1 2\n00 0 1 1\n"):
            assert write_multipartite(read_multipartite(variant)) == text


# sha256 of every file the multipartite commands write for two inputs: the
# half-split on 5 parts of 12 (``hs.mp``) and a seeded random graph on parts
# of 6, 7 and 8 vertices (``rand.mp``)
REPORT_GOLDEN = {
    "hs.mp":
        "dce4cf1495911755ead2153e7c5de020b1687536ca369c19435af4335e20cb49",
    "rand.mp":
        "feacefdca5c744cd1628aa96a22d3e051973c3cc55966b6d4e6677d25ac3f0cd",
    "profile-hs.json":
        "4b52da0397a9bcb41e4b3ed39e1616b1a6b31308bffa14024b4715e8ab791809",
    "profile-rand.json":
        "a1bd7f72dd05e997336bc23c40a2d2bc1987715c6249bc4f0664e52625c09b9d",
    "triangle-hs.json":
        "c65c14407dbf18d83bc3b2591279a78a82e9cf2c2c141928a52546e6a2221f80",
    "triangle-rand.json":
        "bfcd1dcf9b67e9c46e47f365c2286e9b0348789694292a91708f222db6c0e31e",
    "diagnostics-rand.json":
        "426b24de796cd3884909622fcb1610660e0d1f9b1f02d1bbf334b3411d278e55",
    "bipartite-exact.json":
        "cfd934d94f7e10fd9fb756efff912f1b8559c4eef11241aaceb372f44249f94c",
    "bipartite-search.json":
        "5bf65453bf54c9ef77202bc23b1dcddc35ce0aa4916e4d49f79716099303233b",
}


def test_reports_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rand.mp").write_text(
        write_multipartite(gen_random_multipartite([6, 7, 8], 1, 2, 11)), encoding="utf-8")
    runs = [
        ["multipartite", "--op", "halfsplit", "--m", "5", "--s", "12", "--out", "hs.mp"],
        *(["multipartite", "--op", op, "--in", "%s.mp" % src, "--report",
           "%s-%s.json" % (op, src)] for op in ("profile", "triangle") for src in ("hs", "rand")),
        ["multipartite", "--op", "diagnostics", "--delta", "1/10", "--epsilon", "1/20",
         "--in", "rand.mp", "--report", "diagnostics-rand.json"],
        *(["certify", "--kind", "bipartite", "--mode", mode, "--in", "rand.mp",
           "--report", "bipartite-%s.json" % mode] for mode in ("exact", "search")),
    ]
    for argv in runs:
        assert main(argv) == 0, argv
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in REPORT_GOLDEN}
    assert digests == REPORT_GOLDEN
