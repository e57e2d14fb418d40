import math
import random
import re
import tracemalloc
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from hyperq import core
from hyperq.core import (
    Hypergraph3,
    Hypergraph4,
    ParseError,
    read_hypergraph,
    write_hypergraph,
)
from hyperq.constructions import Tournament, gen_oriented_4hg, gen_random_3hg, gen_tournament_3hg
from helpers import naive_pair_rows, naive_text, tournament_seed


def edges_within(h, u):
    """e(U), from count_ordered_triples, which counts each ordering of an edge."""
    return h.count_ordered_triples(u, u, u) // 6


class TestCountWithin:
    def test_complete_subset(self):
        h = Hypergraph3.complete(6)
        assert edges_within(h, range(4)) == math.comb(4, 3)

    def test_empty(self):
        h = Hypergraph3.empty(8)
        assert edges_within(h, range(8)) == 0

    def test_regular_tournament_full_set(self):
        seed = tournament_seed(5, lambda out: all(r.bit_count() == 2 for r in out))
        h = gen_tournament_3hg(5, seed)
        assert edges_within(h, range(5)) == 5
        # cyclic triangles = C(n,3) - sum over v of C(outdeg(v), 2)
        out = Tournament(5, seed).out
        assert math.comb(5, 3) - sum(math.comb(out[v].bit_count(), 2) for v in range(5)) == 5

    def test_out_of_range_vertex(self):
        h = Hypergraph3.empty(4)
        with pytest.raises(ValueError):
            edges_within(h, [0, 4])


def brute_ordered(h, sets):
    """Ordered tuples of distinct vertices, one from each set, that span an edge."""
    return sum(1 for t in product(*sets)
               if len(set(t)) == len(t) and h.has_edge(*t))


def draw_sets(draw, n, arity):
    return [draw(st.sets(st.integers(0, n - 1))) if n else set() for _ in range(arity)]


@st.composite
def hypergraph_and_sets(draw, arity, low=0, high=8):
    n = draw(st.integers(low, high))
    tuples = list(combinations(range(n), arity))
    keep = draw(st.lists(st.booleans(), min_size=len(tuples), max_size=len(tuples)))
    h = (Hypergraph3 if arity == 3 else Hypergraph4).from_edges(
        n, [t for t, k in zip(tuples, keep) if k])
    return h, draw_sets(draw, n, arity)


class TestOrderedTriples:
    def test_complete_disjoint_product(self):
        h = Hypergraph3.complete(9)
        assert h.count_ordered_triples(range(2), range(2, 5), range(5, 9)) == 2 * 3 * 4

    def test_complete_all_equal(self):
        h = Hypergraph3.complete(7)
        full = range(7)
        assert h.count_ordered_triples(full, full, full) == 7 * 6 * 5

    def test_single_edge_overlapping(self):
        h = Hypergraph3.from_edges(3, [(0, 1, 2)])
        assert h.count_ordered_triples([0], [1], [1, 2]) == 1

    @settings(max_examples=200, deadline=None)
    @given(hypergraph_and_sets(3))
    def test_matches_brute_count(self, case):
        h, sets = case
        assert h.count_ordered_triples(*sets) == brute_ordered(h, sets)
        masks = [sum(1 << v for v in s) for s in sets]
        assert h.count_ordered_triples(*masks) == brute_ordered(h, sets)

    @settings(max_examples=40, deadline=None)
    @given(hypergraph_and_sets(3, low=9, high=17))
    def test_ordered_triples_multibyte_rows(self, case):
        # n > 8: each packed link row spans w > 1 bytes, mostly n % 8 != 0
        h, sets = case
        assert h.count_ordered_triples(*sets) == brute_ordered(h, sets)
        _, ys, zs = sets
        counts = h.pair_counts(sum(1 << v for v in ys), sum(1 << v for v in zs))
        assert counts == [brute_ordered(h, [{v}, ys, zs]) for v in range(h.n)]

    @settings(max_examples=20, deadline=None)
    @given(hypergraph_and_sets(3, low=9, high=13), st.data())
    def test_ordered_triples_reuse_packed_view(self, case, data):
        h, sets = case
        assert h.count_ordered_triples(*sets) == brute_ordered(h, sets)
        view = h._packed
        assert view is not None
        for _ in range(3):
            sets = draw_sets(data.draw, h.n, 3)
            assert h.count_ordered_triples(*sets) == brute_ordered(h, sets)
        assert h._packed is view


class TestLinkGraph:
    def test_complete(self):
        link = Hypergraph3.complete(5).link_graph(0)
        assert link.edge_count == math.comb(4, 2)
        assert not any(link.has_edge(0, v) for v in range(1, 5))

    def test_empty(self):
        assert Hypergraph3.empty(5).link_graph(2).edge_count == 0

    def test_edge_count_difference(self):
        h = gen_tournament_3hg(12, 3)
        for a in range(12):
            rest = [e for e in h.iter_edges() if a not in e]
            assert h.link_graph(a).edge_count == h.edge_count - len(rest)

    def test_links_sum_to_triple_edge_count(self):
        h = gen_random_3hg(11, 3, 10, 4)
        assert sum(h.link_graph(a).edge_count for a in range(11)) == 3 * h.edge_count


@pytest.mark.parametrize("query", [(-1, 1), (1, -1), (1, 3), (3, 1), (1, 1)])
def test_graph_has_edge_refuses_a_bad_pair(query):
    """A vertex outside [0, n) never wraps around to the end of the rows."""
    g = core.Graph(3)
    g.add_edge(2, 1)
    assert g.has_edge(1, 2) and not g.has_edge(0, 1)
    with pytest.raises(ValueError, match=re.escape("bad edge %r" % (query,))):
        g.has_edge(*query)


@pytest.mark.parametrize("width", range(1, 11))
def test_pack_rows_matches_the_byte_join(width):
    """``pack_rows`` against joining the rows' bytes, and ``unpack_rows``
    (native slots up to 8 bytes, byte strings above) back to the rows, on
    empty tables, all-zero and maximal fields, and random rows given as a
    list or a generator."""
    top = (1 << 8 * width) - 1
    rng = random.Random(width)
    tables = [[], [0], [top], [top] * 9, [0, top, 0, top, top],
              [rng.randrange(top + 1) for _ in range(300)]]
    for rows in tables:
        want = int.from_bytes(b"".join(r.to_bytes(width, "little") for r in rows), "little")
        assert core.pack_rows(rows, width) == want
        assert core.pack_rows(iter(rows), width) == want
        assert core.unpack_rows(core.pack_rows(rows, width), width, len(rows)) == rows


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=" \t\r\n0123-mpx", max_size=40))
def test_canonical_text_is_idempotent_and_keeps_lines(text):
    """``canonical_text`` is canonical on its own output, and ends each line
    of the text, the last one too, with one LF."""
    canonical = core.canonical_text(text)
    assert core.canonical_text(canonical) == canonical
    breaks = len(re.findall(r"\r\n|\r|\n", text))
    assert canonical.count("\n") == breaks + (not text.endswith(("\r", "\n")))


class TestSerialization:
    def test_single_edge(self):
        h = read_hypergraph("3 3 1\n0 1 2\n")
        assert isinstance(h, Hypergraph3)
        assert h.edges() == [(0, 1, 2)]

    def test_round_trip_generated(self):
        h = gen_tournament_3hg(20, 5)
        text = write_hypergraph(h)
        assert write_hypergraph(read_hypergraph(text)) == text

    def test_round_trip_4uniform(self):
        h = Hypergraph4.from_edges(7, [(0, 1, 2, 3), (1, 2, 4, 6), (0, 3, 5, 6)])
        text = write_hypergraph(h)
        again = read_hypergraph(text)
        assert isinstance(again, Hypergraph4)
        assert write_hypergraph(again) == text

    def test_round_trip_generated_4uniform(self):
        from hyperq.constructions import gen_oriented_4hg
        h = gen_oriented_4hg(12, 9)
        text = write_hypergraph(h)
        assert write_hypergraph(read_hypergraph(text)) == text

    @pytest.mark.parametrize("text,fragment", [
        ("5 4 0\n", "arity"),
        ("3 4\n", "header"),
        ("3 4 1\n0 1 9\n", "out of range"),
        ("3 4 2\n0 1 2\n0 1 2\n", "duplicate"),
        ("3 4 2\n0 1 3\n0 1 2\n", "sorted"),
        ("3 4 1\n2 1 0\n", "increasing"),
        ("3 4 2\n0 1 2\n", "edge lines"),
    ])
    def test_parse_errors(self, text, fragment):
        with pytest.raises(ParseError) as err:
            read_hypergraph(text)
        assert fragment in str(err.value)

    @pytest.mark.parametrize("text,message", [
        ("3 4 1\n0 1 +2\n", "line 2: vertices must be integers"),
        ("3 4 1\n0 1_0 2\n", "line 2: vertices must be integers"),
        ("3 4 1\n0 1 \u0663\n", "line 2: vertices must be integers"),
        ("3 4 1\n0 1\x0c2\n", "line 2: expected 3 vertices"),
        ("3 4 1\n0\xa01 2\n", "line 2: expected 3 vertices"),
        ("3 4 1\n-0 1 2\n", "line 2: vertex out of range [0, 4)"),
        ("3 +4 1\n0 1 2\n", "line 1: header fields must be integers"),
        ("3 -0 0\n", "line 1: negative n or m"),
        ("3 4 2\n0 1 2\x0b0 1 3\n", "line 3: expected 2 edge lines, found 1"),
    ], ids=["plus", "underscore", "arabic-digit", "form-feed", "nbsp", "minus-zero",
            "header-plus", "header-minus-zero", "vertical-tab-line"])
    def test_refused_outside_the_format(self, text, message):
        with pytest.raises(ParseError) as err:
            read_hypergraph(text)
        assert str(err.value) == message

    def test_header_only_without_final_lf(self):
        assert read_hypergraph("3 2 0").n == 2
        assert read_hypergraph("3 4 1\r0 1 2\n").edges() == [(0, 1, 2)]

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            read_hypergraph("3 5 2\n0 1 2\n0 1 7\n")
        assert "line 3" in str(err.value)

    @pytest.mark.parametrize("fault,message,layout", [
        ("swap", "edges not sorted lexicographically", "canonical"),
        ("repeat", "duplicate edge", "canonical"),
        ("swap", "edges not sorted lexicographically", "crlf"),
        ("repeat", "duplicate edge", "tabs"),
    ], ids=["swap", "repeat", "swap-crlf", "repeat-tabs"])
    def test_order_checked_across_bulk_blocks(self, fault, message, layout):
        # the reader checks order in blocks; break it where two meet, in text
        # whose layout the reader rewrites first or in canonical text
        text = write_hypergraph(gen_tournament_3hg(60, 0))
        cut = text.find("\n", text.index("\n") + 1 + core._BLOCK_CHARS) + 1
        assert 0 < cut < len(text)
        start = text.rindex("\n", 0, cut - 1) + 1
        end = text.index("\n", cut) + 1
        last, first = text[start:cut], text[cut:end]
        broken = first + last if fault == "swap" else last + last
        bad = text[:start] + broken + text[end:]
        line = text.count("\n", 0, cut) + 1
        if layout == "crlf":
            bad = bad.replace("\n", "\r\n")
        elif layout == "tabs":
            bad = bad.replace(" ", "\t ")
        with pytest.raises(ParseError) as err:
            read_hypergraph(bad)
        assert str(err.value) == "line %d: %s" % (line, message)
        assert write_hypergraph(read_hypergraph(text)) == text


def _at_last_line(text: str, where: str, fault: str) -> str:
    """``fault`` in place of the last space of ``text``, or before its last
    line's first or last vertex."""
    at = {"space": text.rindex(" "), "last": text.rindex(" ") + 1,
          "first": text.rindex("\n", 0, len(text) - 1) + 1}[where]
    return text[:at] + fault + text[at + (where == "space"):]


# each departure from canonical layout the reader accepts: the first five
# late in the text, on its last line, the others all through it
LAYOUTS = {
    "tab": lambda t: _at_last_line(t, "space", "\t"),
    "cr": lambda t: t[:-1] + "\r\n",
    "double-space": lambda t: _at_last_line(t, "space", "  "),
    "leading-zero": lambda t: _at_last_line(t, "last", "0"),
    "leading-zero-first": lambda t: _at_last_line(t, "first", "00"),
    "tabs": lambda t: t.replace(" ", "\t"),
    "spaces-and-tabs": lambda t: t.replace(" ", " \t  "),
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "lone-cr": lambda t: t.replace("\n", "\r"),
    "leading-space": lambda t: "\t" + t.replace("\n", "\n ")[:-1],
    "trailing-space": lambda t: t.replace("\n", " \t\n"),
    "leading-zeros": lambda t: re.sub(r"\b([0-9])", r"00\1", t),
    "no-final-lf": lambda t: t[:-1],
}


@pytest.fixture(scope="module")
def several_blocks():
    return {3: gen_tournament_3hg(80, 1), 4: gen_oriented_4hg(44, 1)}


@pytest.mark.parametrize("arity", [3, 4])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_layout_departure_reads_canonical_rows(several_blocks, arity, layout):
    """Every accepted departure from canonical layout, wherever it occurs in
    a text of several blocks, reads to the rows of the canonical text."""
    h = several_blocks[arity]
    text = write_hypergraph(h)
    assert len(text) > 2 * core._BLOCK_CHARS
    bent = LAYOUTS[layout](text)
    assert bent != text
    assert read_hypergraph(bent)._rows == h._rows


@pytest.mark.parametrize("chunk", [1, 5, 64])
@pytest.mark.parametrize("arity", [3, 4])
def test_writer_chunks_join_to_the_naive_text(monkeypatch, arity, chunk):
    """However many lines a chunk holds, the chunks join to the naive text,
    whether a chunk ends on a prefix's last line or inside its lines."""
    h = gen_tournament_3hg(12, 3) if arity == 3 else gen_oriented_4hg(9, 3)
    monkeypatch.setattr(core, "_WRITE_LINES", chunk)
    assert write_hypergraph(h) == naive_text(h.n, arity, h.edges())


def test_writer_peak_stays_near_the_text():
    """Writing n = 200 (328K lines, 3.4 MB) peaks below 3x the text's length:
    the chunks and their join make the peak, not a string per line."""
    h = gen_tournament_3hg(200, 0)
    tracemalloc.start()
    try:
        text = write_hypergraph(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(text)


class TestFromEdges:
    @pytest.mark.parametrize("cls,first,again", [
        (Hypergraph3, (0, 1, 2), (2, 0, 1)),
        (Hypergraph4, (0, 1, 2, 3), (3, 1, 0, 2)),
    ])
    def test_unsorted_duplicate(self, cls, first, again):
        with pytest.raises(ValueError) as err:
            cls.from_edges(5, [first, tuple(range(1, len(first) + 1)), again])
        assert str(err.value) == "duplicate edge %r" % (first,)

    @pytest.mark.parametrize("cls,edge,message", [
        (Hypergraph3, (0, 1), "edge (0, 1) must have 3 distinct vertices"),
        (Hypergraph3, (3, 0, 1, 2), "edge (0, 1, 2, 3) must have 3 distinct vertices"),
        (Hypergraph3, (2, 0, 2), "edge (0, 2, 2) must have 3 distinct vertices"),
        (Hypergraph3, (4, 0, 5), "edge (0, 4, 5) out of range [0, 5)"),
        (Hypergraph4, (2, 0, 1), "edge (0, 1, 2) must have 4 distinct vertices"),
        (Hypergraph4, (4, 0, 1, 2, 3), "edge (0, 1, 2, 3, 4) must have 4 distinct vertices"),
        (Hypergraph4, (1, 3, 1, 0), "edge (0, 1, 1, 3) must have 4 distinct vertices"),
        (Hypergraph4, (-1, 0, 1, 2), "edge (-1, 0, 1, 2) out of range [0, 5)"),
    ], ids=["3-short", "3-long", "3-repeat", "3-range", "4-short", "4-long", "4-repeat",
            "4-range"])
    def test_bad_edge_named_with_arity(self, cls, edge, message):
        with pytest.raises(ValueError) as err:
            cls.from_edges(5, [edge])
        assert str(err.value) == message

    @pytest.mark.parametrize("cls,edge", [(Hypergraph3, (0, 1, 4)), (Hypergraph4, (0, 1, 2, 4))])
    def test_has_edge_in_any_vertex_order(self, cls, edge):
        h = cls.from_edges(5, [edge])
        assert all(h.has_edge(*p) for p in permutations(edge))
        assert not h.has_edge(*edge[:-1], 3)

    @pytest.mark.parametrize("cls,query", [
        (Hypergraph3, (0, 1, -1)), (Hypergraph3, (0, 1, 5)), (Hypergraph3, (-1, 0, 1)),
        (Hypergraph3, (0, 1, 1)), (Hypergraph3, (0, 1)),
        (Hypergraph4, (0, 1, -1, 2)), (Hypergraph4, (0, 1, 2, 5)), (Hypergraph4, (0, 5, 1, 2)),
        (Hypergraph4, (0, 1, 2, 2)), (Hypergraph4, (0, 1, 2)),
    ], ids=["3-negative", "3-last-high", "3-first-negative", "3-repeat", "3-short",
            "4-negative", "4-last-high", "4-second-high", "4-repeat", "4-short"])
    def test_has_edge_refuses_a_bad_tuple(self, cls, query):
        """A vertex outside [0, n) never wraps around to the end of a row and
        never reads a row past n; a repeated vertex is no tuple of an edge."""
        h = cls.from_edges(5, [(0, 1, 4) if cls is Hypergraph3 else (0, 1, 2, 4)])
        with pytest.raises(ValueError, match=re.escape("bad tuple %r for n=5" % (query,))):
            h.has_edge(*query)

    @pytest.mark.parametrize("cls,n,count", [
        (Hypergraph3, 0, 0), (Hypergraph3, 2, 0), (Hypergraph3, 3, 1), (Hypergraph3, 6, 20),
        (Hypergraph3, 15, 455), (Hypergraph4, 3, 0), (Hypergraph4, 4, 1),
        (Hypergraph4, 7, 35), (Hypergraph4, 15, 1365),
    ])
    def test_complete_and_empty_edge_counts(self, cls, n, count):
        full, empty = cls.complete(n), cls.empty(n)
        assert (full.edge_count, len(full.edges())) == (count, count)
        assert (empty.edge_count, empty.edges()) == (0, [])

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([3, 4]), st.integers(0, 10), st.data())
    def test_pair_row_model_duels_naive(self, arity, n, data):
        """Edges in shuffled order and vertex order: ``from_edges`` builds the
        naive rows, ``iter_edges`` lists the sorted edges, and the text of
        ``write_hypergraph`` is the naive text and reads back to the rows."""
        tuples = list(combinations(range(n), arity))
        keep = data.draw(st.lists(st.booleans(), min_size=len(tuples), max_size=len(tuples)))
        edges = [t for t, k in zip(tuples, keep) if k]
        rng = data.draw(st.randoms(use_true_random=False))
        given_edges = [rng.sample(e, arity) for e in edges]
        rng.shuffle(given_edges)
        cls = Hypergraph3 if arity == 3 else Hypergraph4
        h = cls.from_edges(n, given_edges)
        assert h._rows == naive_pair_rows(n, arity, given_edges)
        assert list(h.iter_edges()) == edges
        assert h.edge_count == len(edges)
        text = write_hypergraph(h)
        assert text == naive_text(n, arity, given_edges)
        again = read_hypergraph(text)
        assert type(again) is cls and again._rows == h._rows


class TestHypergraph4:
    def test_pair_link_matches_edges(self):
        edges = [(0, 1, 2, 3), (0, 1, 2, 4), (1, 2, 3, 4)]
        h = Hypergraph4.from_edges(5, edges)
        rows = h.pair_rows(1, 2)
        assert [(x, y) for x, y in combinations(range(5), 2) if rows[x] >> y & 1] == \
            [(0, 3), (0, 4), (3, 4)]
        assert h.edge_count == 3

    @settings(max_examples=100, deadline=None)
    @given(hypergraph_and_sets(4))
    def test_ordered_quadruples_match_brute_count(self, case):
        h, sets = case
        assert h.count_ordered_quadruples(*sets) == brute_ordered(h, sets)

    @settings(max_examples=40, deadline=None)
    @given(hypergraph_and_sets(4, low=9, high=13))
    def test_ordered_quadruples_multibyte_rows(self, case):
        # n > 8: each packed link row spans w > 1 bytes, mostly n % 8 != 0
        h, sets = case
        assert h.count_ordered_quadruples(*sets) == brute_ordered(h, sets)

    @settings(max_examples=20, deadline=None)
    @given(hypergraph_and_sets(4, low=9, high=13), st.data())
    def test_ordered_quadruples_reuse_packed_view(self, case, data):
        h, sets = case
        assert h.count_ordered_quadruples(*sets) == brute_ordered(h, sets)
        view = h._packed
        assert view is not None
        for _ in range(3):
            sets = draw_sets(data.draw, h.n, 4)
            assert h.count_ordered_quadruples(*sets) == brute_ordered(h, sets)
        assert h._packed is view

    def test_ordered_quadruples_complete(self):
        h = Hypergraph4.complete(6)
        assert h.count_ordered_quadruples([0], [1], [2], [3]) == 1
        full = range(6)
        assert h.count_ordered_quadruples(full, full, full, full) == 6 * 5 * 4 * 3

    def test_edge_list_lexicographic(self):
        h = Hypergraph4.complete(5)
        edges = h.edges()
        assert edges == sorted(edges)
        assert len(edges) == math.comb(5, 4)
