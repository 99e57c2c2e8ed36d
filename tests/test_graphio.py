"""Graph and solution text formats: round trips and error reporting."""

import random

import pytest

from cmpdp.graph import INDEPENDENT_SET, VertexSet, build_graph
from cmpdp.graphio import (
    MAX_VERTICES,
    GraphFormatError,
    parse_graph,
    parse_solution,
    write_graph,
    write_solution,
)

from helpers import random_graph


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


def test_roundtrip_randomized():
    rng = random.Random(2024)
    for _ in range(50):
        g = random_graph(rng, rng.randint(0, 20), rng.random())
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
