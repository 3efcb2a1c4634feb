"""Text, JSON and DOT serialization shared by the CLI.

Literals:
    matrix      "2,0,0;1,0,2;0,0,0"     rows split by ';', entries by ','
    partition   "3,1" or "[3,1]"

Rationals serialize as strings "p/q" in lowest terms ("p" for integers) so
JSON consumers never lose precision.  Canonical JSON (sorted keys, fixed
separators) makes parse + re-serialize byte-identical.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .basis import Matrix, SchurElement, check_matrix
from .multiplication import Tensor
from .partitions import Partition, check_partition


def _parse_cells(text: str, kind: str) -> tuple[int, ...]:
    """The comma-separated cells of a literal; each must be ASCII digits only,
    so signs, underscores, spaces and non-ASCII digits are refused."""
    cells = text.split(",")
    for cell in cells:
        if not (cell.isascii() and cell.isdigit()):
            raise ValueError(f"malformed {kind} literal {text!r}: bad cell {cell!r}")
    return tuple(map(int, cells))


def parse_matrix(text: str) -> Matrix:
    rows = tuple(_parse_cells(row, "matrix") for row in text.split(";"))
    check_matrix(rows)
    return rows


def format_matrix(entries: Matrix) -> str:
    return ";".join(",".join(str(v) for v in row) for row in entries)


def parse_partition(text: str) -> Partition:
    """A partition literal: "3,1", or "[3,1]" as ``format_partition`` prints it."""
    if text.strip() in ("", "0", "[]"):
        return ()
    if text.startswith("[") and text.endswith("]"):
        text = text[1:-1]
    return check_partition(_parse_cells(text, "partition"))


def format_partition(shape: Partition) -> str:
    return "[" + ",".join(str(p) for p in shape) + "]"


def format_scalar(value: Fraction | int) -> str:
    return str(Fraction(value))


def format_element(x: SchurElement) -> str:
    """Human-readable expansion, e.g. ``6*[4,0;0,0] + 2*[2,1;1,0]``."""
    if x.is_zero():
        return "0"
    parts = []
    for D, coeff in x.sorted_terms():
        lit = f"[{format_matrix(D)}]"
        parts.append(lit if coeff == 1 else f"{format_scalar(coeff)}*{lit}")
    return " + ".join(parts)


def element_to_json(x: SchurElement) -> dict:
    return {
        "n": x.n,
        "d": x.d,
        "terms": [
            {"matrix": [list(row) for row in D], "coeff": format_scalar(c)}
            for D, c in x.sorted_terms()
        ],
    }


def canonical_json(payload) -> str:
    """Deterministic JSON: sorted keys, fixed separators, no trailing spaces."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _bipartite_dot(name: str, n: int, edges: list[str]) -> str:
    """A DOT graph with sources s1..sn ranked above sinks d1..dn, then the
    given edge lines."""
    ranks = [
        f"  {{ rank={rank}; "
        + " ".join(f'{prefix}{v} [label="{v}" shape=circle];' for v in range(1, n + 1))
        + " }"
        for rank, prefix in (("source", "s"), ("sink", "d"))
    ]
    return "\n".join([f"graph {name} {{", "  rankdir=TB;", *ranks, *edges, "}"])


def matrix_to_dot(entries: Matrix) -> str:
    """DOT rendering of the bipartite multigraph of an index matrix.

    First row = sources, second row = destinations; entry (i, j) emits that
    many parallel edges source j -- destination i.  Vertices and parallel
    edges are sorted so output is reproducible.
    """
    n, _ = check_matrix(entries)
    edges = [
        f"  s{j} -- d{i};"
        for j in range(1, n + 1)
        for i in range(1, n + 1)
        for _ in range(entries[i - 1][j - 1])
    ]
    return _bipartite_dot("bipartite", n, edges)


def euler_class_to_dot(tensor: Tensor, name: str = "matching") -> str:
    """DOT rendering of a matching class as its composite two-step paths.

    One edge per nonzero tensor entry, from source j to destination k,
    labeled with the middle vertex and the path count.
    """
    n = len(tensor)
    edges = [
        f'  s{j} -- d{k} [label="via {mid} x{count}"];'
        for j in range(1, n + 1)
        for k in range(1, n + 1)
        for mid in range(1, n + 1)
        if (count := tensor[k - 1][mid - 1][j - 1])
    ]
    return _bipartite_dot(name, n, edges)
