"""Graph and solution text formats: round trips and error reporting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmpdp.graph import INDEPENDENT_SET, VertexSet, build_graph
from cmpdp.graphio import (
    MAX_VERTICES,
    GraphFormatError,
    parse_graph,
    parse_solution,
    write_graph,
    write_solution,
)


def test_parse_path():
    g = parse_graph("p edge 3 2\ne 1 2\ne 2 3\n")
    assert g == build_graph(3, [(0, 1), (1, 2)])


def test_parse_isolated_vertices():
    g = parse_graph("p edge 2 0\n")
    assert g.n == 2 and g.m == 0


def test_parse_comments_and_blanks():
    g = parse_graph("c hello\n\np edge 2 1\nc mid\ne 1 2\n")
    assert g.m == 1


def test_parse_bytes():
    assert parse_graph(b"p edge 1 0\n").n == 1


def test_edge_out_of_range_reports_line():
    with pytest.raises(GraphFormatError, match="line 2") as exc:
        parse_graph("p edge 3 1\ne 1 5\n")
    assert exc.value.line == 2


def test_non_integer_token_reports_line():
    with pytest.raises(GraphFormatError, match="line 2.*'x'"):
        parse_graph("p edge 3 1\ne 1 x\n")


def test_malformed_header():
    with pytest.raises(GraphFormatError, match="line 1"):
        parse_graph("p graph 3 1\n")


def test_vertex_count_over_the_cap_reports_line():
    assert parse_graph(f"p edge {MAX_VERTICES} 0\n").n == MAX_VERTICES
    for n in (MAX_VERTICES + 1, 300_000_000):
        with pytest.raises(GraphFormatError, match="line 2: .*exceed the limit"):
            parse_graph(f"c huge\np edge {n} 0\n")


def test_edge_count_must_match_distinct_edges():
    with pytest.raises(GraphFormatError, match="line 1: header declares 99 edges, found 1") as exc:
        parse_graph("p edge 3 99\ne 1 2\n")
    assert exc.value.line == 1
    with pytest.raises(GraphFormatError, match="line 2: header declares 0 edges, found 1"):
        parse_graph("c header on line 2\np edge 3 0\ne 2 3\n")
    # a repeated edge, in either order, counts once
    repeated = "e 1 2\ne 2 1\ne 1 2\n"
    assert parse_graph("p edge 3 1\n" + repeated).m == 1
    with pytest.raises(GraphFormatError, match="line 1: header declares 3 edges, found 1"):
        parse_graph("p edge 3 3\n" + repeated)


def test_missing_header():
    with pytest.raises(GraphFormatError, match="missing"):
        parse_graph("c only a comment\n")


def test_edge_before_header():
    with pytest.raises(GraphFormatError, match="line 1"):
        parse_graph("e 1 2\np edge 2 1\n")


def test_duplicate_header():
    with pytest.raises(GraphFormatError, match="duplicate"):
        parse_graph("p edge 2 0\np edge 2 0\n")


def test_unknown_line_type():
    with pytest.raises(GraphFormatError, match="'q'"):
        parse_graph("p edge 2 0\nq 1 2\n")


def test_self_loop_in_file():
    with pytest.raises(GraphFormatError, match="line 2"):
        parse_graph("p edge 2 1\ne 1 1\n")


def test_write_format():
    g = build_graph(3, [(1, 2), (0, 1)])
    assert write_graph(g) == "p edge 3 2\ne 1 2\ne 2 3\n"


@st.composite
def graphs(draw, max_n: int = 40):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_roundtrip_randomized(g):
    # any edge subset, so isolated vertices, trailing ones included, occur
    assert parse_graph(write_graph(g)) == g


def test_solution_roundtrip():
    vs = VertexSet(frozenset({0, 2, 5}), INDEPENDENT_SET)
    text = write_solution(vs)
    assert text.splitlines()[0] == "s 3"
    assert parse_solution(text) == vs.members


def test_solution_size_mismatch():
    with pytest.raises(GraphFormatError, match="header says 2"):
        parse_solution("s 2\n1\n")


def test_solution_missing_header():
    with pytest.raises(GraphFormatError):
        parse_solution("1\n2\n")


@pytest.mark.parametrize(
    "text, line",
    [("s\n", 1), ("sx\n", 1), ("1\nsx 1\n", 2), ("s 1 1\n1\n", 1), ("s x\n", 1)],
    ids=["bare-s", "sx", "sx-after-vertex", "extra-field", "non-integer"],
)
def test_solution_malformed_size_line_reports_line(text, line):
    with pytest.raises(GraphFormatError) as err:
        parse_solution(text)
    assert err.value.line == line


def test_solution_repeated_vertex_reports_line():
    with pytest.raises(GraphFormatError, match="line 3: vertex 1 listed twice"):
        parse_solution("s 2\n1\n1\n")


# Characters that build or break the format's tokens, beside arbitrary ones.
EDIT_CHARS = "0123456789 -+pecx\n\t"
EDITS = ("insert", "replace", "delete", "drop-line", "copy-line", "swap-lines")


@st.composite
def mutated_graph_text(draw):
    """The text of a valid graph file after one to four random character or
    line edits."""
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=20)) if pairs else []
    text = "c generated\n" + write_graph(build_graph(n, edges))
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(EDITS))
        if kind in ("insert", "replace", "delete"):
            i = draw(st.integers(0, len(text)))
            c = draw(st.sampled_from(EDIT_CHARS) | st.characters())
            tail = text[i:] if kind == "insert" else text[i + 1 :]
            text = text[:i] + ("" if kind == "delete" else c) + tail
        else:
            lines = text.split("\n")
            i = draw(st.integers(0, len(lines) - 1))
            j = draw(st.integers(0, len(lines) - 1))
            if kind == "drop-line":
                del lines[i]
            elif kind == "copy-line":
                lines.insert(j, lines[i])
            else:
                lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
    return text


@settings(max_examples=300, deadline=None)
@given(mutated_graph_text())
def test_mutated_text_parses_to_a_valid_graph_or_raises_format_error(text):
    try:
        g = parse_graph(text)
    except GraphFormatError:
        return
    g.check()
