"""Text formats: DIMACS-like graph files and solver solution files.

Graph format: header ``p edge <n> <m>``, comment lines starting with ``c``,
edge lines ``e <u> <v>`` with 1-based ids. The writer emits each edge once
with u < v, so parse(write(g)) == g. A header may declare at most
``MAX_VERTICES`` vertices, and its ``m`` must equal the number of distinct
edges (a repeated edge, in either order, counts once).

Solution format: header ``s <size>`` followed by one distinct 1-based vertex
id per line.
"""

from __future__ import annotations

from pathlib import Path

from .graph import Graph, VertexSet, build_graph

# A learned solve takes up to n branch steps of two scorer forwards each, and
# one forward at this size takes about 60 ms, so its solves run for minutes.
# Checked at the header, before one adjacency set per vertex is built.
MAX_VERTICES = 10_000


class GraphFormatError(ValueError):
    """Malformed graph or solution text; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_graph(text: str | bytes) -> Graph:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    n = m = header_line = None
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise GraphFormatError("duplicate header", lineno)
            if len(fields) != 4 or fields[1] != "edge":
                raise GraphFormatError("header must be 'p edge <n> <m>'", lineno)
            n = _int_field(fields[2], lineno)
            m = _int_field(fields[3], lineno)
            header_line = lineno
            if n < 0:
                raise GraphFormatError("negative vertex count", lineno)
            if n > MAX_VERTICES:
                raise GraphFormatError(f"{n} vertices exceed the limit of {MAX_VERTICES}", lineno)
        elif fields[0] == "e":
            if n is None:
                raise GraphFormatError("edge before header", lineno)
            if len(fields) != 3:
                raise GraphFormatError("edge line must be 'e <u> <v>'", lineno)
            u = _int_field(fields[1], lineno)
            v = _int_field(fields[2], lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphFormatError(f"vertex id out of range 1..{n}", lineno)
            if u == v:
                raise GraphFormatError(f"self-loop at {u}", lineno)
            edges.add((min(u, v) - 1, max(u, v) - 1))
        else:
            raise GraphFormatError(f"unknown line type {fields[0]!r}", lineno)
    if n is None:
        raise GraphFormatError("missing 'p edge' header", 1)
    if m != len(edges):
        raise GraphFormatError(f"header declares {m} edges, found {len(edges)} distinct", header_line)
    return build_graph(n, edges)


def write_graph(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def read_graph_file(path: str | Path) -> Graph:
    return parse_graph(Path(path).read_text())


def write_graph_file(g: Graph, path: str | Path) -> None:
    Path(path).write_text(write_graph(g))


def write_solution(vs: VertexSet) -> str:
    lines = [f"s {len(vs)}"]
    lines.extend(str(v + 1) for v in sorted(vs.members))
    return "\n".join(lines) + "\n"


def parse_solution(text: str) -> frozenset[int]:
    size = None
    members: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("s"):
            fields = line.split()
            if fields[0] != "s" or len(fields) != 2:
                raise GraphFormatError("size line must be 's <size>'", lineno)
            if size is not None:
                raise GraphFormatError("duplicate size header", lineno)
            size = _int_field(fields[1], lineno)
        else:
            v = _int_field(line, lineno)
            if v < 1:
                raise GraphFormatError("vertex ids are 1-based", lineno)
            if v - 1 in members:
                raise GraphFormatError(f"vertex {v} listed twice", lineno)
            members.add(v - 1)
    if size is None:
        raise GraphFormatError("missing 's <size>' header", 1)
    if size != len(members):
        raise GraphFormatError(f"header says {size} vertices, found {len(members)}", 1)
    return frozenset(members)


def _int_field(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise GraphFormatError(f"expected integer, got {token!r}", lineno) from None
