"""Ground-truth realization of elements as operators on the word space.

An element of S(n,d) acts on the span of the n^d length-d words.  The basis
operator of D maps the words of content col_sums(D) to words of content
row_sums(D) and kills the rest (Green, Polynomial Representations of GL_n,
LNM 830, sections 2-3), so each operator is built only on that weight
block, rows and columns the words of one content in lexicographic order.
Weight spaces are enumerated per content, on demand; the n^d word list
``all_words`` serves only ``dense_operator`` and the tops of the row-sum
law.  Every composition takes one route: the indices (or an element's
terms) are grouped by weight key (row sums, column sums), each key's 0/1
int64 operators are stacked, and where two keys meet one einsum forms
every composite of the key pair, read only at the canonical word pair of
each target index of ``basis.weight_block`` (distinct indices have
disjoint 0/1 supports, so that one entry is its coefficient).
``find_product_mismatch`` compares these composites, for every basis
pair, with ``_uncached_product``, the product core without its cache, so
the check leaves nothing in the product cache, as ``verify``'s other
once-per-pair checks do; ``multiply_via_oracle``
contracts them with the factors' coefficients afterwards, and
``dense_operator`` contracts each key's stack with its coefficients.  This
cross-checks the combinatorial product by a completely different route.
The stacks list each word's images through the unvalidated
``basis._word_images``, since their indices are basis matrices.

numpy is imported inside the functions that use it, so importing the
package, and every command that never reaches the oracle, goes without it.

One size guard, n^d <= DEFAULT_MAX_TENSOR_DIM (10_000), read at call
time, protects against accidental exponential blowups; exceeding it raises
TensorDimensionError.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

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
from .multiplication import _uncached_product

if TYPE_CHECKING:
    import numpy as np

DEFAULT_MAX_TENSOR_DIM = 10_000


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


def _keyed_stacks(indices: Iterable[Matrix]) -> dict[tuple, tuple[list[Matrix], np.ndarray]]:
    """The indices grouped by weight key (row sums, column sums), in order of
    first appearance, each group with its ``_basis_stack``."""
    keyed: dict[tuple, list[Matrix]] = {}
    for D in indices:
        keyed.setdefault((row_sums(D), col_sums(D)), []).append(D)
    return {key: (members, _basis_stack(key, members)) for key, members in keyed.items()}


def _key_pair_composites(first: dict, then: dict) -> Iterator[tuple]:
    """Every key pair of the grouped stacks ``first`` and ``then``, in order,
    as (xs, ys, block, composites).  Where the first key's row sums are the
    second key's column sums, ``block`` is ``weight_block(target, source)``
    and composites[i, j, p] is the entry of ys[j] after xs[i] at the
    canonical cell of block[p]; otherwise both are None.  An entry counts
    words of one content, at most n^d <= guard, so int64 is exact."""
    import numpy as np

    for (middle, source), (xs, first_stack) in first.items():
        for (target, inner), (ys, then_stack) in then.items():
            if inner != middle:
                yield xs, ys, None, None
                continue
            block = weight_block(target, source)
            rows, cols = _weight_space(target), _weight_space(source)
            tops = then_stack[:, [rows[top] for _, top, _ in block]]
            bottoms = first_stack[:, :, [cols[bottom] for _, _, bottom in block]]
            yield xs, ys, block, np.einsum("jpm,imp->ijp", tops, bottoms)


def dense_operator(x: SchurElement) -> np.ndarray:
    """The n^d x n^d matrix of the element, exact rationals, dtype=object.

    Rows are output words, columns input words, both in lexicographic
    order.
    """
    import numpy as np

    dim = check_tensor_dimension(x.n, x.d)
    pos = {w: k for k, w in enumerate(all_words(x.n, x.d))}
    M = np.zeros((dim, dim), dtype=object)
    for (target, source), (members, stack) in _keyed_stacks(x.terms).items():
        coeffs = np.array([x.terms[D] for D in members], dtype=object)
        M[np.ix_([pos[w] for w in _weight_space(target)],
                 [pos[w] for w in _weight_space(source)])] = np.tensordot(coeffs, stack, 1)
    return M


def multiply_via_oracle(x: SchurElement, y: SchurElement) -> SchurElement:
    """Product computed as operator composition, key pair by key pair.

    In x * y the left factor acts first on words, so the composite is the
    operator of y after that of x.  Exact (object dtype); agrees with the
    combinatorial ``multiply``.  The keys are ``weight_block`` members, so
    the result is not re-validated.
    """
    import numpy as np

    x._check_ambient(y)
    check_tensor_dimension(x.n, x.d)
    expansion: dict[Matrix, Scalar] = {}
    pairs = _key_pair_composites(_keyed_stacks(x.terms), _keyed_stacks(y.terms))
    for xs, ys, block, composites in pairs:
        if block is not None:
            cx = np.array([x.terms[D] for D in xs], dtype=object)
            cy = np.array([y.terms[D] for D in ys], dtype=object)
            for (P, _, _), c in zip(block, np.tensordot(cy, np.tensordot(cx, composites, 1), 1)):
                expansion[P] = expansion.get(P, 0) + c
    return SchurElement._trusted(x.n, x.d, {P: c for P, c in expansion.items() if c})


def find_product_mismatch(n: int, d: int) -> tuple[Matrix, Matrix] | None:
    """Compare the combinatorial product against operator composition for
    every ordered basis pair; return the first mismatching pair in key
    order, or None.

    The pairs are visited key pair by key pair, each in basis order.  A pair
    whose keys do not meet composes to nothing, so its product must be
    empty too; the whole key pair is asserted empty in one pass.
    """
    check_tensor_dimension(n, d)
    stacks = _keyed_stacks(enumerate_basis(n, d))
    for xs, ys, block, composites in _key_pair_composites(stacks, stacks):
        if block is None:
            if any(itertools.starmap(_uncached_product, itertools.product(xs, ys))):
                return next(p for p in itertools.product(xs, ys) if _uncached_product(*p))
            continue
        for Dx, row in zip(xs, composites.tolist()):
            for Dy, coeffs in zip(ys, row):
                expansion = {P: c for (P, _, _), c in zip(block, coeffs) if c}
                if expansion != dict(_uncached_product(Dx, Dy)):
                    return Dx, Dy
    return None
