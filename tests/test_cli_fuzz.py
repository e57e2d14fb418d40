"""Fuzzing of the CLI's exit-code contract: on any input, a subcommand exits
0 (success), 2 (usage error) or 3 (refusal) with at most one line on stderr,
never with a traceback.  This covers the multipartite ops that read JSON
and the commands that read ``mp`` text."""

import contextlib
import io
import json
from itertools import combinations

from hypothesis import HealthCheck, given, settings, strategies as st

from hyperq.cli import main

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=12)
# values near the valid shapes, so the fuzz also reaches the checks past the types
ENTRY = st.integers(1, 3) | st.integers(-2, 5) | st.integers() | JSON
TRIPLES = JSON | st.lists(JSON | st.lists(ENTRY, min_size=3, max_size=3), max_size=6)
BLOCK = st.fixed_dictionaries({
    "sizes": JSON | st.lists(ENTRY, min_size=3, max_size=3),
    "triples": TRIPLES,
})


@st.composite
def auxiliary(draw):
    m = draw(st.integers(0, 5))
    keys = {r: [",".join(map(str, t)) for t in combinations(range(m), r)] for r in (2, 3)}
    sizes = st.fixed_dictionaries({key: ENTRY for key in keys[2]},
                                  optional={"0,1,2": ENTRY, "x": ENTRY, "9,9": ENTRY})
    blocks = st.dictionaries(st.sampled_from(keys[3] + ["0,1", "2,1,0", "x"]), TRIPLES,
                             max_size=4)
    return {"m": draw(st.just(m) | st.integers(-2, 10) | JSON),
            "class_sizes": draw(sizes | JSON),
            "blocks": draw(blocks | JSON)}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.one_of(st.tuples(st.just("project"), BLOCK | JSON),
                      st.tuples(st.just("threetriples"), auxiliary() | JSON)))
def test_json_ops_keep_the_exit_code_contract(tmp_path, case):
    op, payload = case
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["multipartite", "--op", op, "--in", str(path)])
    assert code in (0, 2, 3)
    assert len(err.getvalue().splitlines()) <= 1
    assert "Traceback" not in err.getvalue()


# fields near the valid ones, so the fuzz reaches the checks past the header
FIELD = (st.integers(0, 6) | st.integers(-2, 9) | st.integers()
         | st.text("0123456789+-_ \x0c\u0661", max_size=4))


@st.composite
def mp_text(draw):
    """A valid file of up to 4 parts with up to 12 edges, then up to two
    lines of fields near the valid ones inserted anywhere, the header's
    place included."""
    sizes = draw(st.lists(st.integers(0, 6), max_size=4))
    slots = [(i, a, j, b) for i, j in combinations(range(len(sizes)), 2)
             for a in range(sizes[i]) for b in range(sizes[j])]
    lines = [["mp", len(sizes), *sizes]]
    lines += draw(st.lists(st.sampled_from(slots), unique=True, max_size=12)) if slots else []
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.lists(FIELD, max_size=6)))
    sep = draw(st.sampled_from([" ", "\t", " \t "]))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(sep.join(map(str, fields)) for fields in lines) + \
        draw(st.sampled_from(["", end]))


MP_COMMANDS = (
    ("multipartite", "--op", "profile"),
    ("multipartite", "--op", "triangle"),
    ("multipartite", "--op", "diagnostics", "--delta", "1/10", "--epsilon", "1/20"),
    ("certify", "--kind", "bipartite"),
)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(MP_COMMANDS), text=mp_text() | st.text(max_size=40))
def test_mp_readers_keep_the_exit_code_contract(tmp_path, command, text):
    path = tmp_path / "input.mp"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*command, "--in", str(path)])
    assert code in (0, 2, 3)
    assert len(err.getvalue().splitlines()) <= 1
    assert "Traceback" not in err.getvalue()
