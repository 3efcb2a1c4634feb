"""Dense ground-truth realization of elements as operators on the word space.

An element of S(n,d) acts on the n^d-dimensional span of length-d words.
This module materializes that action as a literal n^d x n^d matrix of exact
rationals, composes such matrices, and reads the result back into the
sparse basis form.  It exists to cross-check the combinatorial product:
identical output, computed by a completely different route.

Reading an operator back is well defined because distinct basis indices
have disjoint 0/1 supports: each matrix entry (word_out, word_in) belongs
to exactly one basis index, so one entry per index, taken at its canonical
word pair, determines the expansion of any equivariant operator.

A size guard (default n^d <= 10_000) protects against accidental
exponential blowups; exceeding it raises TensorDimensionError.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

import numpy as np

from .basis import (
    Matrix,
    MultiIndex,
    SchurElement,
    apply_basis,
    canonical_pair,
    enumerate_basis,
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
def _word_positions(n: int, d: int) -> dict[MultiIndex, int]:
    return {w: k for k, w in enumerate(all_words(n, d))}


def _operator_cells(D: Matrix, n: int, d: int) -> Iterator[tuple[int, int]]:
    """Positions (output word, input word) of the 1 entries in the 0/1
    operator of a basis index."""
    pos = _word_positions(n, d)
    for col, word in enumerate(all_words(n, d)):
        for image in apply_basis(D, word):
            yield pos[image], col


def dense_operator(x: SchurElement, max_dim: int | None = None) -> np.ndarray:
    """The n^d x n^d matrix of the element, exact rationals, dtype=object.

    Rows are output words, columns input words, both in lexicographic
    order.
    """
    dim = check_tensor_dimension(x.n, x.d, max_dim)
    M = np.zeros((dim, dim), dtype=object)
    for D, coeff in x.terms.items():
        for row, col in _operator_cells(D, x.n, x.d):
            M[row, col] += coeff
    return M


def element_from_operator(M: np.ndarray, n: int, d: int) -> SchurElement:
    """Sparse expansion of an equivariant operator: one read per basis index."""
    pos = _word_positions(n, d)
    terms: dict[Matrix, Fraction] = {}
    for D in enumerate_basis(n, d):
        top, bottom = canonical_pair(D)
        coeff = M[pos[top], pos[bottom]]
        if coeff:
            terms[D] = Fraction(coeff)
    return SchurElement(n, d, terms)


def multiply_via_oracle(
    x: SchurElement, y: SchurElement, max_dim: int | None = None
) -> SchurElement:
    """Product computed as dense operator composition.

    In x * y the left factor acts first on words, so the composite matrix
    is dense_operator(y) @ dense_operator(x).  Exact; agrees with the
    combinatorial ``multiply``.
    """
    x._check_ambient(y)
    composite = dense_operator(y, max_dim) @ dense_operator(x, max_dim)
    return element_from_operator(composite, x.n, x.d)


def _basis_operator_stack(n: int, d: int) -> np.ndarray:
    """Stacked 0/1 operator matrices of every basis index, int64."""
    B = enumerate_basis(n, d)
    ops = np.zeros((len(B), n**d, n**d), dtype=np.int64)
    for bi, D in enumerate(B):
        for row, col in _operator_cells(D, n, d):
            ops[bi, row, col] = 1
    return ops


def find_product_mismatch(
    n: int, d: int, max_dim: int | None = None
) -> tuple[Matrix, Matrix] | None:
    """Compare the combinatorial product against dense composition for every
    ordered basis pair; return the first mismatching pair, or None.

    Uses batched int64 matrix products: basis operators are 0/1 and every
    composite entry is at most n^d <= guard, far below the int64 range, so
    the integer arithmetic is exact.
    """
    check_tensor_dimension(n, d, max_dim)
    B = enumerate_basis(n, d)
    pos = _word_positions(n, d)
    ops = _basis_operator_stack(n, d)
    can_rows = np.array([pos[canonical_pair(D).top] for D in B])
    can_cols = np.array([pos[canonical_pair(D).bottom] for D in B])
    index_of = {D: k for k, D in enumerate(B)}
    for xi, Dx in enumerate(B):
        # composites[yi] = op(Dy) @ op(Dx): left factor acts first
        composites = ops @ ops[xi]
        coeffs = composites[:, can_rows, can_cols]
        for yi, Dy in enumerate(B):
            expected = np.zeros(len(B), dtype=np.int64)
            for P, mult in _basis_product(Dx, Dy):
                expected[index_of[P]] = mult
            if not np.array_equal(coeffs[yi], expected):
                return Dx, Dy
    return None
