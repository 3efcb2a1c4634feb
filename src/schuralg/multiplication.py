"""Products in the matrix basis via path counting on bipartite multigraphs.

Model: an index matrix D is a bipartite multigraph with n source vertices
(first row) and n destination vertices (second row); entry (i, j) gives the
number of edges from source j to destination i.  For a product x * y the
two edge layers are chained: an edge of x's graph ending at vertex m is
continued by an edge of y's graph starting at m.  A complete matching of
the two edge sets, taken up to permutations of parallel edges on either
side, is recorded as an integer tensor a[k][i][j] = number of x-edges of
type (dest i, src j) continued by y-edges of type (dest k, src i).  The
tensors are exactly the nonnegative solutions of

    sum_k a[k][i][j] = x_matrix[i][j]        (every x-edge is continued)
    sum_j a[k][i][j] = y_matrix[k][i]        (every y-edge is used once)

and each one contributes the composite graph P[k][j] = sum_i a[k][i][j]
with multiplicity prod_{k,j} multinomial(P[k][j]; a[k][.][j]): parallel
composite edges are distinguishable by which middle vertex their two-step
path passes through.

Orientation is load-bearing and locked by the regression tests: in x * y
the LEFT factor acts first on words, so the composite's column sums (input
content) come from x and its row sums (output content) come from y.  On
the word space, x * y coincides with operator composition apply(y) after
apply(x); the dense-operator tests in this package check that equality for
every basis pair at several sizes, with no per-case exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterator

from .basis import (
    Matrix,
    SchurElement,
    check_matrix,
    col_sums,
    row_sums,
)


@dataclass(frozen=True)
class EulerClass:
    """One equivalence class of edge matchings between two index matrices.

    ``tensor[k][i][j]`` counts edges of type (dest i, src j) in the left
    graph matched to edges of type (dest k, src i) in the right graph.
    """

    tensor: tuple[tuple[tuple[int, ...], ...], ...]


def _multinomial(total: int, parts: list[int]) -> int:
    out, rem = 1, total
    for p in parts:
        out *= comb(rem, p)
        rem -= p
    return out


def _contingency_tables(
    rsums: tuple[int, ...], csums: tuple[int, ...]
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All nonnegative integer matrices with the given row and column sums."""
    if sum(rsums) != sum(csums):
        return
    nrows, ncols = len(rsums), len(csums)
    table = [[0] * ncols for _ in range(nrows)]
    remaining = list(csums)

    def fill_row(r: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if r == nrows:
            yield tuple(tuple(row) for row in table)
            return

        def fill_cell(c: int, rem: int) -> Iterator[tuple[tuple[int, ...], ...]]:
            if c == ncols - 1:
                if rem <= remaining[c]:
                    table[r][c] = rem
                    remaining[c] -= rem
                    yield from fill_row(r + 1)
                    remaining[c] += rem
                    table[r][c] = 0
                return
            for v in range(min(rem, remaining[c]), -1, -1):
                table[r][c] = v
                remaining[c] -= v
                yield from fill_cell(c + 1, rem - v)
                remaining[c] += v
                table[r][c] = 0

        yield from fill_cell(0, rsums[r])

    yield from fill_row(0)


def euler_classes(left: Matrix, right: Matrix) -> tuple[EulerClass, ...]:
    """All matching-class tensors for the ordered pair (left, right).

    Empty whenever the row sums of ``left`` differ from the column sums of
    ``right`` (the shared middle vertices must carry equal edge counts).
    The middle vertices decouple: the slice at middle vertex i is any
    matrix with row sums right[.][i] and column sums left[i][.], so the
    classes are a cartesian product of contingency tables.
    """
    n, d = check_matrix(left)
    n2, d2 = check_matrix(right)
    if (n, d) != (n2, d2):
        raise ValueError(f"ambient mismatch: ({n},{d}) vs ({n2},{d2})")
    per_middle: list[list[tuple[tuple[int, ...], ...]]] = []
    for i in range(n):
        rsums = tuple(right[k][i] for k in range(n))
        csums = tuple(left[i][j] for j in range(n))
        slices = list(_contingency_tables(rsums, csums))
        if not slices:
            return ()
        per_middle.append(slices)

    out: list[EulerClass] = []

    def build(i: int, chosen: list[tuple[tuple[int, ...], ...]]) -> None:
        if i == n:
            tensor = tuple(
                tuple(tuple(chosen[mid][k][j] for j in range(n)) for mid in range(n))
                for k in range(n)
            )
            out.append(EulerClass(tensor=tensor))
            return
        for s in per_middle[i]:
            chosen.append(s)
            build(i + 1, chosen)
            chosen.pop()

    build(0, [])
    return tuple(out)


def product_graph(cls: EulerClass) -> Matrix:
    """Composite matrix of a matching class: entry (k, j) counts two-step
    paths from source j to destination k."""
    n = len(cls.tensor)
    return tuple(
        tuple(sum(cls.tensor[k][i][j] for i in range(n)) for j in range(n))
        for k in range(n)
    )


def class_multiplicity(cls: EulerClass) -> int:
    """Number of middle-vertex assignments realizing the class.

    Parallel edges of the composite graph are distinguishable by the middle
    vertex of their path, so each composite cell contributes a multinomial.
    """
    n = len(cls.tensor)
    P = product_graph(cls)
    weight = 1
    for k in range(n):
        for j in range(n):
            weight *= _multinomial(P[k][j], [cls.tensor[k][i][j] for i in range(n)])
    return weight


@lru_cache(maxsize=None)
def _basis_product(left: Matrix, right: Matrix) -> tuple[tuple[Matrix, int], ...]:
    acc: dict[Matrix, int] = {}
    for cls in euler_classes(left, right):
        P = product_graph(cls)
        acc[P] = acc.get(P, 0) + class_multiplicity(cls)
    return tuple(sorted(acc.items()))


def multiply(x: SchurElement, y: SchurElement) -> SchurElement:
    """Bilinear product; the left factor acts first on words."""
    x._check_ambient(y)
    acc: dict[Matrix, Fraction] = {}
    for Dx, cx in x.terms.items():
        for Dy, cy in y.terms.items():
            cxy = cx * cy
            for P, mult in _basis_product(Dx, Dy):
                acc[P] = acc.get(P, Fraction(0)) + cxy * mult
    return SchurElement(x.n, x.d, acc)


def structure_constant(left: Matrix, right: Matrix, target: Matrix) -> int:
    """Coefficient of the target basis index in the product of two basis
    elements, counted directly.

    Counts assignments of a middle letter to every edge of the target
    graph such that, per source j, the middle letters match the left
    factor's column j and, per destination i, they match the right
    factor's row i.  Parallel target edges are distinguishable, hence the
    per-cell multinomial weight.  Equals the coefficient produced by
    ``multiply``; the two routes are cross-checked exhaustively in tests.
    """
    n, d = check_matrix(target)
    for other in (left, right):
        if check_matrix(other) != (n, d):
            raise ValueError("ambient mismatch between factors and target")
    if col_sums(left) != col_sums(target) or row_sums(right) != row_sums(target):
        return 0
    rem_left = [[left[k][j] for j in range(n)] for k in range(n)]
    rem_right = [[right[i][k] for k in range(n)] for i in range(n)]
    cells = [(i, j) for i in range(n) for j in range(n)]
    total = 0

    def rec(ci: int, acc: int) -> None:
        nonlocal total
        if ci == len(cells):
            if all(v == 0 for row in rem_left for v in row) and all(
                v == 0 for row in rem_right for v in row
            ):
                total += acc
            return
        i, j = cells[ci]
        counts = [0] * n

        def slot(k: int, rem: int) -> None:
            if k == n - 1:
                if rem <= rem_left[k][j] and rem <= rem_right[i][k]:
                    counts[k] = rem
                    rem_left[k][j] -= rem
                    rem_right[i][k] -= rem
                    rec(ci + 1, acc * _multinomial(target[i][j], counts))
                    rem_left[k][j] += rem
                    rem_right[i][k] += rem
                    counts[k] = 0
                return
            for v in range(min(rem, rem_left[k][j], rem_right[i][k]), -1, -1):
                counts[k] = v
                rem_left[k][j] -= v
                rem_right[i][k] -= v
                slot(k + 1, rem - v)
                rem_left[k][j] += v
                rem_right[i][k] += v
                counts[k] = 0

        slot(0, target[i][j])

    rec(0, 1)
    return total
