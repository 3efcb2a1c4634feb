"""Ground-truth realization of elements as operators on the word space.

An element of S(n,d) acts on the span of the n^d length-d words.  The basis
operator of D maps the words of content col_sums(D) to words of content
row_sums(D) and kills the rest (Green, Polynomial Representations of GL_n,
LNM 830, sections 2-3), so each operator is built only on that weight
block, rows and columns the words of one content in lexicographic order.
Weight spaces are enumerated per content, on demand; the n^d word list
``all_words`` serves only ``dense_operator`` and the tops of the row-sum
law.  Products compose blocks where the middle weights meet and read each
target index of ``basis.weight_block`` at its canonical word pair:
distinct indices have disjoint 0/1 supports, so that one entry is its
coefficient.  ``find_product_mismatch`` does this for every basis pair at
once, weight key pair by weight key pair: the 0/1 int64 operators of one
key are stacked, and one einsum forms every composite of two keys that
meet.  This cross-checks the combinatorial product by a completely
different route.  It compares against ``_uncached_product``, the product
core without its cache: each ordered pair is visited once, so the check
leaves nothing in the product cache.  The operator stacks list each
word's images through the unvalidated ``basis._word_images``, since
their indices come from ``enumerate_basis``.

numpy is imported inside the functions that use it, so importing the
package, and every command that never reaches the oracle, goes without it.

One size guard, n^d <= DEFAULT_MAX_TENSOR_DIM (10_000), read at call
time, protects against accidental exponential blowups; exceeding it raises
TensorDimensionError.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

from .basis import (
    Matrix,
    MultiIndex,
    Scalar,
    SchurElement,
    _word_images,
    col_sums,
    enumerate_basis,
    row_sums,
    weight_block,
    words_of_content,
)
from .multiplication import _basis_product

if TYPE_CHECKING:
    import numpy as np

DEFAULT_MAX_TENSOR_DIM = 10_000

# The checked route without its cache: the all-pairs check visits each
# ordered pair once, so caching its products would only hold memory.
_uncached_product = _basis_product.__wrapped__


class TensorDimensionError(RuntimeError):
    """The requested word space exceeds the configured resource guard."""


@lru_cache(maxsize=None)
def all_words(n: int, d: int) -> tuple[MultiIndex, ...]:
    """All length-d words over {1, ..., n}, lexicographic."""
    return tuple(itertools.product(range(1, n + 1), repeat=d))


def check_tensor_dimension(n: int, d: int) -> int:
    dim = n**d
    if dim > DEFAULT_MAX_TENSOR_DIM:
        raise TensorDimensionError(
            f"word space dimension {n}^{d} = {dim} exceeds guard {DEFAULT_MAX_TENSOR_DIM}"
        )
    return dim


@lru_cache(maxsize=None)
def _weight_space(mu: tuple[int, ...]) -> dict[MultiIndex, int]:
    """The words of content ``mu``, mapped to their lexicographic positions."""
    return {word: k for k, word in enumerate(words_of_content(mu))}


def _basis_stack(key: tuple, members: Sequence[Matrix]) -> np.ndarray:
    """The operators of the basis indices ``members``, all of weight key
    ``key`` = (row sums, column sums), as one 0/1 int64 stack: entry
    [k, r, c] is 1 iff members[k] sends the c-th word of content key[1] to
    the r-th word of content key[0].  An image outside the block raises
    KeyError instead of being dropped."""
    import numpy as np

    rows, cols = map(_weight_space, key)
    stack = np.zeros((len(members), len(rows), len(cols)), np.int64)
    for k, D in enumerate(members):
        for col, word in enumerate(cols):
            for image in _word_images(D, word):
                stack[k, rows[image], col] = 1
    return stack


def _operator_blocks(terms: dict[Matrix, Scalar]) -> dict:
    """The operator of sum c * xi_D, one exact (object dtype) matrix per
    (row sums, column sums) block: each term is its 0/1 block times c."""
    blocks: dict = {}
    for D, coeff in terms.items():
        key = (row_sums(D), col_sums(D))
        block = _basis_stack(key, (D,))[0].astype(object) * coeff
        blocks[key] = blocks.get(key, 0) + block
    return blocks


def _compose(first: dict, then: dict) -> dict[Matrix, Scalar]:
    """Expansion of the operator ``then`` after ``first``: blocks compose only
    where the middle weights meet, and each target index is read at its
    canonical cell."""
    composite: dict = {}
    for (middle, source), a in first.items():
        for (target, inner), b in then.items():
            if inner == middle:
                composite[target, source] = composite.get((target, source), 0) + b @ a
    expansion = {}
    for (target, source), M in composite.items():
        rows, cols = _weight_space(target), _weight_space(source)
        for P, top, bottom in weight_block(target, source):
            if coeff := M[rows[top], cols[bottom]]:
                expansion[P] = coeff
    return expansion


def dense_operator(x: SchurElement) -> np.ndarray:
    """The n^d x n^d matrix of the element, exact rationals, dtype=object.

    Rows are output words, columns input words, both in lexicographic
    order.
    """
    import numpy as np

    dim = check_tensor_dimension(x.n, x.d)
    pos = {w: k for k, w in enumerate(all_words(x.n, x.d))}
    M = np.zeros((dim, dim), dtype=object)
    for (target, source), block in _operator_blocks(x.terms).items():
        M[np.ix_([pos[w] for w in _weight_space(target)],
                 [pos[w] for w in _weight_space(source)])] = block
    return M


def multiply_via_oracle(x: SchurElement, y: SchurElement) -> SchurElement:
    """Product computed as operator composition, block by block.

    In x * y the left factor acts first on words, so the composite is the
    operator of y after that of x.  Exact; agrees with the combinatorial
    ``multiply``.
    """
    x._check_ambient(y)
    check_tensor_dimension(x.n, x.d)
    first, then = _operator_blocks(x.terms), _operator_blocks(y.terms)
    return SchurElement(x.n, x.d, _compose(first, then))


def find_product_mismatch(n: int, d: int) -> tuple[Matrix, Matrix] | None:
    """Compare the combinatorial product against operator composition for
    every ordered basis pair; return the first mismatching pair in key
    order, or None.

    The basis is grouped by weight key (row sums, column sums), in order of
    first appearance, and the pairs are visited key pair by key pair, each
    in basis order.  Where the left factor's row sums are the right
    factor's column sums, the keys meet: one einsum over the two 0/1 int64
    stacks forms every composite of the key pair, read only at the
    canonical cells of the target block.  A pair whose keys do not meet
    composes to nothing, so its product must be empty too; the whole key
    pair is asserted empty in one pass.  Every composite entry counts words
    of one content, at most n^d <= guard, so the int64 arithmetic is exact.
    """
    import numpy as np

    check_tensor_dimension(n, d)
    keyed: dict[tuple, list[Matrix]] = {}
    for D in enumerate_basis(n, d):
        keyed.setdefault((row_sums(D), col_sums(D)), []).append(D)
    stacks = {key: _basis_stack(key, members) for key, members in keyed.items()}
    for (middle, source), xs in keyed.items():
        for (target, inner), ys in keyed.items():
            if inner != middle:
                pairs = itertools.product(xs, ys)
                if any(itertools.starmap(_uncached_product, pairs)):
                    return next(p for p in itertools.product(xs, ys) if _uncached_product(*p))
                continue
            block = weight_block(target, source)
            rows, cols = _weight_space(target), _weight_space(source)
            tops = stacks[target, middle][:, [rows[top] for _, top, _ in block]]
            bottoms = stacks[middle, source][:, :, [cols[bottom] for _, _, bottom in block]]
            composites = np.einsum("jpm,imp->ijp", tops, bottoms).tolist()
            for Dx, row in zip(xs, composites):
                for Dy, coeffs in zip(ys, row):
                    expansion = {P: c for (P, _, _), c in zip(block, coeffs) if c}
                    if expansion != dict(_uncached_product(Dx, Dy)):
                        return Dx, Dy
    return None
