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

The products themselves never list the classes.  The slices T_i = a[.][i][.]
are chosen independently per middle vertex i (row sums right[.][i], column
sums left[i][.]), and the multiplicity P!/a! factors as (P!/x!) times
prod_i w_i(T_i), with w_i(T) = prod_j multinomial(left[i][j]; T[.][j]) and
x = left, where x!, P!, a! are the products of the entries' factorials.  So

    c_P = (P!/x!) * sum over T_1 + ... + T_n = P of prod_i w_i(T_i),

a convolution over the middle vertices; the division is exact.  Each
margin's tables and weights are built once, and the middles are folded in
one by one over a dict keyed by the partial sum.  ``euler_classes`` and
``structure_constant`` remain independent routes to the same numbers.

The fold adds packed integer codes, not entry tuples (Kronecker
substitution).  An n x n matrix with entries summing to at most d is coded
as sum_k flat[k] * (d+1)^(n*n-1-k), its row-major entries read as n*n
big-endian digits in base d + 1.  Every table and every partial sum has
nonnegative entries totalling at most d, so each digit stays at most d and
adding two codes never carries: the sum of the codes is the code of the
entrywise sum.  All codes of one (n, d) have n*n digits, so their integer
order is the row-major lexicographic order of the matrices, and sorting
the codes sorts the output indices.

The expansion of each basis pair is cached (``_basis_product``, bounded),
and each output code is decoded once through the bounded ``_shared_matrix``
memo, so the cached expansions and the products of ``multiply`` hold one
tuple per matrix instead of one per term.  Each factor's margins and x!
are read from one bounded record per index (``_index_record``), so a pair
whose margins do not meet costs two lookups.  The checks that expand each
pair once (the oracle's all-pairs check, and ``verify``'s structure-constants
and content-margins checks, over meeting pairs only) call the uncached core,
``_uncached_product``, and leave the product cache empty.

Orientation is load-bearing and locked by the regression tests: in x * y
the LEFT factor acts first on words, so the composite's column sums (input
content) come from x and its row sums (output content) come from y.  On
the word space, x * y coincides with operator composition apply(y) after
apply(x); the dense-operator tests in this package check that equality for
every basis pair at several sizes, with no per-case exceptions.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, prod
from typing import Sequence

from .basis import (
    Matrix,
    SchurElement,
    _contingency_tables,
    check_matrix,
    col_sums,
    compositions,
    row_sums,
)

# A matching class: tensor[k][i][j] counts edges of type (dest i, src j) in
# the left graph matched to edges of type (dest k, src i) in the right graph.
Tensor = tuple[Matrix, ...]


def _multinomial(parts: Sequence[int]) -> int:
    out, rem = 1, sum(parts)
    for p in parts:
        out *= comb(rem, p)
        rem -= p
    return out


def euler_classes(left: Matrix, right: Matrix) -> tuple[Tensor, ...]:
    """All matching-class tensors for the ordered pair (left, right).

    Both matrices are validated and must share one ambient (n, d), else
    ``ValueError``.  The result is empty whenever the row sums of ``left``
    differ from the column sums of ``right`` (the shared middle vertices
    must carry equal edge counts).  The middle vertices decouple: the
    slice at middle vertex i is any matrix with row sums right[.][i] and
    column sums left[i][.], so the classes are a cartesian product of
    contingency tables.
    """
    n, d = check_matrix(left)
    n2, d2 = check_matrix(right)
    if (n, d) != (n2, d2):
        raise ValueError(f"ambient mismatch: ({n},{d}) vs ({n2},{d2})")
    if row_sums(left) != col_sums(right):
        return ()
    per_middle = [
        tuple(_contingency_tables(col, row)) for col, row in zip(zip(*right), left)
    ]
    return tuple(tuple(zip(*chosen)) for chosen in itertools.product(*per_middle))


def product_graph(tensor: Tensor) -> Matrix:
    """Composite matrix of a matching class: entry (k, j) counts two-step
    paths from source j to destination k."""
    return tuple(col_sums(layer) for layer in tensor)


def class_multiplicity(tensor: Tensor) -> int:
    """Number of middle-vertex assignments realizing the class.

    Parallel edges of the composite graph are distinguishable by the middle
    vertex of their path, so each composite cell (k, j) contributes the
    multinomial of its split over middle vertices, tensor[k][.][j].
    """
    return prod(_multinomial(column) for layer in tensor for column in zip(*layer))


@lru_cache(maxsize=4096)
def _margin_tables(
    rsums: tuple[int, ...], csums: tuple[int, ...], d: int
) -> tuple[tuple[int, int], ...]:
    """Each table with the given row and column sums, as its packed code
    (row-major entries as big-endian digits in base d + 1, see the module
    docstring), with its weight: the product over columns j of
    multinomial(csums[j]; column j)."""
    base = d + 1
    out = []
    for T in _contingency_tables(rsums, csums):
        code = 0
        for v in sum(T, ()):
            code = code * base + v
        out.append((code, prod(_multinomial(column) for column in zip(*T))))
    return tuple(out)


@lru_cache(maxsize=4096)
def _shared_matrix(code: int, n: int, d: int) -> tuple[Matrix, int]:
    """The n x n matrix whose row-major entries are the base-(d + 1) digits
    of ``code``, most significant first, with the product of its entries'
    factorials.  One matrix object per code while it stays cached; eviction
    only loses sharing."""
    flat = [0] * (n * n)
    for k in range(n * n - 1, -1, -1):
        code, flat[k] = divmod(code, d + 1)
    matrix = tuple(tuple(flat[r:r + n]) for r in range(0, n * n, n))
    return matrix, prod(map(factorial, flat))


@lru_cache(maxsize=1 << 15)
def _index_record(D: Matrix) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The row sums and column sums of the basis index D, and the product
    of its entries' factorials (x! in the module docstring)."""
    return row_sums(D), col_sums(D), prod(factorial(v) for row in D for v in row)


@lru_cache(maxsize=1 << 15)
def _basis_product(left: Matrix, right: Matrix) -> tuple[tuple[Matrix, int], ...]:
    """Expansion of the product of two basis indices; both come from
    ``enumerate_basis`` or a ``SchurElement``, so they are not re-validated.
    The middle vertices are folded in by the convolution in the module
    docstring over the packed codes of ``_margin_tables``: a partial sum
    plus a table is one int addition, which never carries because every
    digit stays at most d.  Sorting the codes sorts the output indices, and
    each output code is decoded once, with its factorials, through
    ``_shared_matrix``.  The margins and x! come from ``_index_record``.
    The cache is bounded above the working sets seen (about 17000 pairs),
    so repeated products keep their hits."""
    middle, _, x_fact = _index_record(left)
    if middle != _index_record(right)[1]:
        return ()
    n = len(left)
    d = sum(middle)
    partial: dict[int, int] = {0: 1}
    for col, row in zip(zip(*right), left):
        if not any(row):
            continue  # no edge passes through this middle vertex
        tables = _margin_tables(col, row, d)
        folded: dict[int, int] = {}
        for S, c in partial.items():
            for T, w in tables:
                key = S + T
                folded[key] = folded.get(key, 0) + c * w
        partial = folded
    out = []
    for code in sorted(partial):
        matrix, p_fact = _shared_matrix(code, n, d)
        out.append((matrix, p_fact * partial[code] // x_fact))
    return tuple(out)


# The core without its cache, for the checks that visit each pair once.
_uncached_product = _basis_product.__wrapped__


def _numerators(x: SchurElement) -> tuple[int, dict[Matrix, int]]:
    """The lcm L of the coefficients' denominators, and each coefficient
    times L, an int."""
    scale = lcm(*(c.denominator for c in x.terms.values()))
    return scale, {D: c.numerator * (scale // c.denominator) for D, c in x.terms.items()}


def multiply(x: SchurElement, y: SchurElement) -> SchurElement:
    """Bilinear product; the left factor acts first on words.  Only term
    pairs with row_sums(Dx) == col_sums(Dy) can contribute, so only those
    are visited.  Both factors are scaled to integer numerators, so the
    sums are over ints and each output coefficient is divided once.  The
    margins are read from ``_index_record``, and the keys come from the
    trusted core, so the result is not re-validated."""
    x._check_ambient(y)
    lx, nx = _numerators(x)
    ly, ny = _numerators(y)
    by_col_sums: dict[tuple[int, ...], list[tuple[Matrix, int]]] = {}
    for Dy, cy in ny.items():
        by_col_sums.setdefault(_index_record(Dy)[1], []).append((Dy, cy))
    acc: dict[Matrix, int] = {}
    for Dx, cx in nx.items():
        for Dy, cy in by_col_sums.get(_index_record(Dx)[0], ()):
            cxy = cx * cy
            for P, mult in _basis_product(Dx, Dy):
                acc[P] = acc.get(P, 0) + cxy * mult
    scale = lx * ly
    return SchurElement._trusted(
        x.n, x.d, {P: Fraction(total, scale) for P, total in acc.items() if total}
    )


def structure_constant(left: Matrix, right: Matrix, target: Matrix) -> int:
    """Coefficient of the target basis index in the product of two basis
    elements, counted directly.

    Counts assignments of a middle letter to every edge of the target
    graph such that, per source j, the middle letters match the left
    factor's column j and, per destination i, they match the right
    factor's row i.  Parallel target edges are distinguishable, hence the
    per-cell multinomial weight.  Equals the coefficient produced by
    ``multiply``; the two routes are cross-checked exhaustively in tests.
    Once the margins match, every complete filling of the cells uses both
    factors up: the splits in column j total col_sums(left)[j], and those
    in row i total row_sums(right)[i]; so no remainder is tested.  A zero
    cell has one split, the zero vector, of weight 1, so it is skipped.
    """
    n, d = check_matrix(target)
    for other in (left, right):
        if check_matrix(other) != (n, d):
            raise ValueError("ambient mismatch between factors and target")
    if col_sums(left) != col_sums(target) or row_sums(right) != row_sums(target):
        return 0
    rem_left = [list(row) for row in left]
    rem_right = [list(row) for row in right]
    cells = [(i, j) for i in range(n) for j in range(n) if target[i][j]]

    def rec(ci: int) -> int:
        if ci == len(cells):
            return 1
        i, j = cells[ci]
        caps = [min(rem_left[k][j], rem_right[i][k]) for k in range(n)]
        total = 0
        for counts in compositions(target[i][j], caps):
            for k, v in enumerate(counts):
                rem_left[k][j] -= v
                rem_right[i][k] -= v
            total += _multinomial(counts) * rec(ci + 1)
            for k, v in enumerate(counts):
                rem_left[k][j] += v
                rem_right[i][k] += v
        return total

    return rec(0)
