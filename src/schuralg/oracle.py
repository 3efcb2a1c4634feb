"""Ground-truth realization of elements as operators on the word space.

An element of S(n,d) acts on the span of the n^d length-d words.  The basis
operator of D has entry 1 at (u, v), output word u and input word v, iff
the pair matrix of (u, v) is D (Green, Polynomial Representations of GL_n,
LNM 830, sections 2-3).  In x * y the left factor acts first, so the
coefficient of P in the product of two basis elements is the composite's
entry at P's canonical pair (t, b): the number of middle words m with
pair(m, b) = x and pair(t, m) = y.  Every route reads entries through one
unvalidated primitive, ``_pair_positions``, from word pairs to basis
positions.  ``dense_operator`` fills its matrix one output word at a time.
The two product routes make one numpy pass per middle content over the
grid of target pairs and middle words: ``multiply_via_oracle`` weights it
by the factors' Fraction coefficients, and ``find_product_mismatch``
counts it and compares the counts with ``_uncached_product``, the product
core without its cache, so it leaves nothing in the product cache.  No
route lists a word's images or forms the core's packed codes, so this
cross-checks the combinatorial product by a completely different route.

numpy is imported inside the functions that use it, so importing the
package, and every command that never reaches the oracle, goes without it.

One size guard, n^d <= DEFAULT_MAX_TENSOR_DIM (10_000), read at call
time, protects against accidental exponential blowups; exceeding it raises
TensorDimensionError.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import TYPE_CHECKING, Sequence

from .basis import (
    Matrix,
    Scalar,
    SchurElement,
    basis_count,
    col_sums,
    enumerate_basis,
    meeting_index,
    row_sums,
    weight_block,
    words_of_content,
)
from .multiplication import _uncached_product

if TYPE_CHECKING:
    import numpy as np

DEFAULT_MAX_TENSOR_DIM = 10_000


class TensorDimensionError(RuntimeError):
    """The requested word space exceeds the configured resource guard."""


def check_tensor_dimension(n: int, d: int) -> int:
    dim = n**d
    if dim > DEFAULT_MAX_TENSOR_DIM:
        raise TensorDimensionError(
            f"word space dimension {n}^{d} = {dim} exceeds guard {DEFAULT_MAX_TENSOR_DIM}"
        )
    return dim


def _pair_positions(tops: np.ndarray, bottoms: np.ndarray, n: int) -> np.ndarray:
    """The position in ``enumerate_basis(n, d)`` of the pair matrix of each
    word pair.  ``tops`` (output words) and ``bottoms`` (input words) are
    letter arrays that broadcast together, the d letters on the last axis,
    in a dtype that holds n^2 (see ``_letters``).  Nothing is validated.

    ``enumerate_basis`` lists the sorted multisets of cells, cell (a, b)
    being (a - 1) n + (b - 1), in decreasing lexicographic order, which is
    the colexicographic order of the complemented cells n^2 - 1 - c, sorted
    c_0 <= ... <= c_{d-1} (by d rounds of odd-even transposition); there the
    rank is the sum of comb(c_k + k, k + 1).  Every term is below |M(n,d)|,
    so int64 is exact wherever the basis fits in memory."""
    import numpy as np

    d = np.shape(tops)[-1]
    cells = [(n - tops[..., k]) * n + (n - bottoms[..., k]) for k in range(d)]
    for r in range(d):
        for k in range(r % 2, d - 1, 2):
            low, high = cells[k], cells[k + 1]
            cells[k], cells[k + 1] = np.minimum(low, high), np.maximum(low, high)
    positions = np.zeros(np.broadcast_shapes(np.shape(tops), np.shape(bottoms))[:-1], np.int64)
    for k, column in enumerate(cells):
        positions += np.array([comb(c + k, k + 1) for c in range(n * n)], np.int64)[column]
    return positions


def _letters(mu: tuple[int, ...]) -> np.ndarray:
    """The words of content ``mu`` in lexicographic order, as the rows of a
    letter array in the smallest dtype that holds n^2."""
    import numpy as np

    n, words = len(mu), list(words_of_content(mu))
    return np.array(words, np.min_scalar_type(n * n)).reshape(len(words), sum(mu))


def _canonical_words(indices: Sequence[Matrix], n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The canonical pairs of the index matrices as two letter arrays, tops
    and bottoms: each matrix's cells, with multiplicity, in row-major order."""
    import numpy as np

    counts = np.array(indices, np.int64).reshape(len(indices) * n * n)
    cells = np.tile(np.arange(n * n, dtype=np.min_scalar_type(n * n)), len(indices))
    tops, bottoms = np.divmod(np.repeat(cells, counts).reshape(len(indices), d), n)
    return tops + 1, bottoms + 1


def _coefficients(terms: dict[Matrix, Scalar], n: int, d: int) -> np.ndarray:
    """The coefficients of ``terms`` at every position of
    ``enumerate_basis(n, d)``, 0 off their support, as an object array.  It
    holds 8 |B| bytes of pointers, at most 1.6 MB at every size the CLI
    admits (|B| <= 200000)."""
    import numpy as np

    vector = np.zeros(basis_count(n, d), object)
    vector[_pair_positions(*_canonical_words(list(terms), n, d), n)] = list(terms.values())
    return vector


def dense_operator(x: SchurElement) -> np.ndarray:
    """The n^d x n^d matrix of the element, exact rationals, dtype=object.

    Rows are output words u, columns input words v, both in lexicographic
    order; entry (u, v) is the element's coefficient at the pair matrix of
    (u, v), filled one row at a time.
    """
    import numpy as np

    n, d = x.n, x.d
    dim = check_tensor_dimension(n, d)
    words = np.indices((n,) * d, np.min_scalar_type(n * n)).reshape(d, dim).T + 1
    M = np.zeros((dim, dim), dtype=object)
    coefficients = _coefficients(x.terms, n, d)
    for u, word in enumerate(words):
        M[u] = coefficients[_pair_positions(word, words, n)]
    return M


def multiply_via_oracle(x: SchurElement, y: SchurElement) -> SchurElement:
    """Product computed as operator composition, one middle content at a
    time.

    In x * y the left factor acts first on words, so the coefficient of P
    sums, over the middle words m of every content the factors share, x's
    coefficient at pair(m, b) times y's at pair(t, m), (t, b) being P's
    canonical pair.  Exact; agrees with the combinatorial ``multiply``.  The
    targets are the members of the weight blocks of y's row sums and x's
    column sums, so the result is not re-validated.
    """
    import numpy as np

    x._check_ambient(y)
    n, d = x.n, x.d
    check_tensor_dimension(n, d)
    cx, cy = _coefficients(x.terms, n, d), _coefficients(y.terms, n, d)
    targets = [P for rows in dict.fromkeys(map(row_sums, y.terms))
               for cols in dict.fromkeys(map(col_sums, x.terms))
               for P, _, _ in weight_block(rows, cols)]
    tops, bottoms = _canonical_words(targets, n, d)
    totals = np.zeros(len(targets), object)
    for middle in set(map(row_sums, x.terms)) & set(map(col_sums, y.terms)):
        words = _letters(middle)
        weights = cx[_pair_positions(words, bottoms[:, None], n)]
        totals += (weights * cy[_pair_positions(tops[:, None], words, n)]).sum(axis=1)
    return SchurElement._trusted(n, d, {P: c for P, c in zip(targets, totals) if c})


def find_product_mismatch(n: int, d: int) -> tuple[Matrix, Matrix] | None:
    """Compare the combinatorial product against operator composition for
    every ordered basis pair; return the first mismatching pair in basis
    order, or None.

    Each middle content's pass yields the triples (x, y, P) with their
    counts, sorted; each left index x whose row sums are that content (the
    xs of ``meeting_index``) is then compared with the core's expansions
    of x with every basis index, in basis order.  A pair that meets no
    middle word must have an empty product; an index outside M(n,d), a
    zero coefficient, a repeated index or an unsorted expansion is a
    mismatch.  Both sides list their terms by right index y, so the first
    y of a failing x is the smaller y of the first two terms that differ,
    a side that runs out reading as y = |B|.
    """
    import numpy as np

    check_tensor_dimension(n, d)
    B = enumerate_basis(n, d)
    size = len(B)
    tops, bottoms = _canonical_words(B, n, d)
    least = (size, size)  # the least failing (i, j), none while i = |B|
    for middle, (xs, _) in meeting_index(n, d).items():
        words = _letters(middle)
        pairs = (_pair_positions(words, bottoms[:, None], n) * size
                 + _pair_positions(tops[:, None], words, n)).ravel()
        # the grid runs target by target, so a stable sort keeps each
        # pair's targets in order
        order = np.argsort(pairs, kind="stable")
        pairs, targets = pairs[order], np.repeat(np.arange(size), len(words))[order]
        first = np.ones(len(pairs), bool)
        first[1:] = (pairs[1:] != pairs[:-1]) | (targets[1:] != targets[:-1])
        starts = np.flatnonzero(first)
        counts = np.add.reduceat(np.ones_like(pairs), starts)
        (left, right), targets = np.divmod(pairs[starts], size), targets[starts]
        for i, lo, hi in zip(xs, np.searchsorted(left, xs), np.searchsorted(left, xs, "right")):
            got = [(j, P, c) for j, Dy in enumerate(B) for P, c in _uncached_product(B[i], Dy)]
            want = [(j, B[p], c) for j, p, c in zip(
                right[lo:hi].tolist(), targets[lo:hi].tolist(), counts[lo:hi].tolist())]
            if got != want:
                sides = itertools.zip_longest(got, want, fillvalue=(size,))
                g, w = next((g, w) for g, w in sides if g != w)
                least = min(least, (i, min(g[0], w[0])))
    return None if least[0] == size else (B[least[0]], B[least[1]])
