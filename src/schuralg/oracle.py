"""Ground-truth realization of elements as operators on the word space.

An element of S(n,d) acts on the span of the n^d length-d words.  The basis
operator of D maps the words of content col_sums(D) to words of content
row_sums(D) and kills the rest (Green, Polynomial Representations of GL_n,
LNM 830, sections 2-3), so each operator is built only on that weight
block, rows and columns in lexicographic order.  Products compose blocks
where the middle weights meet and read each basis index at its canonical
word pair: distinct indices have disjoint 0/1 supports, so that one entry
is its coefficient.  This cross-checks the combinatorial product by a
completely different route.

A size guard (default n^d <= 10_000) protects against accidental
exponential blowups; exceeding it raises TensorDimensionError.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .basis import (
    Matrix,
    MultiIndex,
    Scalar,
    SchurElement,
    apply_basis,
    col_sums,
    content,
    enumerate_basis,
    row_sums,
    weight_blocks,
)
from .multiplication import _basis_product

DEFAULT_MAX_TENSOR_DIM = 10_000


class TensorDimensionError(RuntimeError):
    """The requested word space exceeds the configured resource guard."""


@lru_cache(maxsize=None)
def all_words(n: int, d: int) -> tuple[MultiIndex, ...]:
    """All length-d words over {1, ..., n}, lexicographic."""
    return tuple(itertools.product(range(1, n + 1), repeat=d))


def check_tensor_dimension(n: int, d: int, max_dim: int | None = None) -> int:
    limit = DEFAULT_MAX_TENSOR_DIM if max_dim is None else max_dim
    dim = n**d
    if dim > limit:
        raise TensorDimensionError(
            f"word space dimension {n}^{d} = {dim} exceeds guard {limit}"
        )
    return dim


@lru_cache(maxsize=None)
def _weight_spaces(n: int, d: int) -> dict[tuple[int, ...], dict[MultiIndex, int]]:
    """Each letter content's words, mapped to their lexicographic positions."""
    spaces: dict = {}
    for word in all_words(n, d):
        space = spaces.setdefault(content(word, n), {})
        space[word] = len(space)
    return spaces


def _operator_blocks(terms: dict[Matrix, Scalar], n: int, d: int) -> dict:
    """The operator of sum c * xi_D, one matrix per (row sums, column sums)
    block: each term is 0/1 on its block times c, int64 for an ``int`` c and
    exact object dtype otherwise.  An image outside the block raises
    KeyError instead of being dropped."""
    spaces = _weight_spaces(n, d)
    blocks: dict = {}
    for D, coeff in terms.items():
        key = (row_sums(D), col_sums(D))
        rows, cols = spaces[key[0]], spaces[key[1]]
        block = np.zeros((len(rows), len(cols)), np.int64 if type(coeff) is int else object)
        for col, word in enumerate(cols):
            for image in apply_basis(D, word):
                block[rows[image], col] = 1
        blocks[key] = blocks.get(key, 0) + block * coeff
    return blocks


def _compose(first: dict, then: dict, n: int, d: int) -> dict[Matrix, Scalar]:
    """Expansion of the operator ``then`` after ``first``: blocks compose only
    where the middle weights meet, and each target index is read at its
    canonical cell."""
    composite: dict = {}
    for (middle, source), a in first.items():
        for (target, inner), b in then.items():
            if inner == middle:
                composite[target, source] = composite.get((target, source), 0) + b @ a
    spaces, expansion = _weight_spaces(n, d), {}
    for (target, source), M in composite.items():
        rows, cols = spaces[target], spaces[source]
        for P, top, bottom in weight_blocks(n, d)[target, source]:
            if coeff := M[rows[top], cols[bottom]]:
                expansion[P] = coeff
    return expansion


def dense_operator(x: SchurElement, max_dim: int | None = None) -> np.ndarray:
    """The n^d x n^d matrix of the element, exact rationals, dtype=object.

    Rows are output words, columns input words, both in lexicographic
    order.
    """
    dim = check_tensor_dimension(x.n, x.d, max_dim)
    pos = {w: k for k, w in enumerate(all_words(x.n, x.d))}
    spaces = _weight_spaces(x.n, x.d)
    M = np.zeros((dim, dim), dtype=object)
    for (target, source), block in _operator_blocks(x.terms, x.n, x.d).items():
        M[np.ix_([pos[w] for w in spaces[target]], [pos[w] for w in spaces[source]])] = block
    return M


def multiply_via_oracle(
    x: SchurElement, y: SchurElement, max_dim: int | None = None
) -> SchurElement:
    """Product computed as operator composition, block by block.

    In x * y the left factor acts first on words, so the composite is the
    operator of y after that of x.  Exact; agrees with the combinatorial
    ``multiply``.
    """
    x._check_ambient(y)
    check_tensor_dimension(x.n, x.d, max_dim)
    blocks = [_operator_blocks(z.terms, x.n, x.d) for z in (x, y)]
    return SchurElement(x.n, x.d, _compose(*blocks, x.n, x.d))


def find_product_mismatch(
    n: int, d: int, max_dim: int | None = None
) -> tuple[Matrix, Matrix] | None:
    """Compare the combinatorial product against operator composition for
    every ordered basis pair; return the first mismatching pair, or None.

    A pair whose weights do not meet composes to nothing, so its product
    must be empty too.  Basis blocks are 0/1 and int64: every composite
    entry is at most n^d <= guard, so the integer arithmetic is exact.
    """
    check_tensor_dimension(n, d, max_dim)
    B = [(D, _operator_blocks({D: 1}, n, d)) for D in enumerate_basis(n, d)]
    for Dx, x_blocks in B:
        for Dy, y_blocks in B:
            if _compose(x_blocks, y_blocks, n, d) != dict(_basis_product(Dx, Dy)):
                return Dx, Dy
    return None
