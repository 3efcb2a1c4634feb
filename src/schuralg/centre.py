"""The centre of S(n,d): class-sum images, centrality, primitive idempotents.

Each conjugacy class of the symmetric group, summed inside the algebra,
lands in the centre.  The expansion coefficient of a class sum on a basis
index D is a permutation count: with (top, bottom) the canonical word pair
of D, it is the number of permutations of the prescribed cycle type
carrying bottom to top under the position action.

The stored action convention is w . word = (word[w[1]-1], ..., word[w[d]-1]).
Counting with w or with its inverse gives the same coefficients because
cycle type is inversion invariant; the tests assert that equality instead
of assuming it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .basis import (
    Matrix,
    MultiIndex,
    SchurElement,
    canonical_pair,
    check_matrix,
    col_sums,
    enumerate_basis,
    row_sums,
    weight_blocks,
)
from .linalg import rational_rank
from .multiplication import multiply
from .partitions import (
    Partition,
    character,
    check_partition,
    partitions_of,
    permutations_by_type,
    permute_positions,
    tableaux_count,
)


@lru_cache(maxsize=None)
def _pair_count(shape: Partition, top: tuple[int, ...], bottom: tuple[int, ...]) -> int:
    return sum(
        1
        for w in permutations_by_type(sum(shape)).get(shape, ())
        if permute_positions(w, bottom) == top
    )


def class_coefficient(shape: Partition, entries: Matrix) -> int:
    """Number of permutations of cycle type ``shape`` carrying the canonical
    bottom word of the matrix to its top word.

    Zero whenever the row sums differ from the column sums: a position
    permutation preserves letter content.
    """
    shape = check_partition(shape)
    _, d = check_matrix(entries)
    if sum(shape) != d:
        raise ValueError(f"partition weight {sum(shape)} != matrix entry sum {d}")
    if row_sums(entries) != col_sums(entries):
        return 0
    top, bottom = canonical_pair(entries)
    return _pair_count(shape, top, bottom)


def _square_block(n: int, d: int) -> list[tuple[Matrix, MultiIndex, MultiIndex]]:
    """Every basis index whose row sums equal its column sums, with its
    canonical word pair; class sums vanish off this block."""
    return [
        member
        for (rows, cols), members in weight_blocks(n, d).items()
        if rows == cols
        for member in members
    ]


def centre_basis_element(shape: Partition, n: int, d: int) -> SchurElement:
    """Image of the class sum of cycle type ``shape`` inside S(n,d)."""
    shape = check_partition(shape)
    if sum(shape) != d:
        raise ValueError(f"partition weight {sum(shape)} != d = {d}")
    return SchurElement(
        n, d, {D: _pair_count(shape, top, bottom) for D, top, bottom in _square_block(n, d)}
    )


def is_central(x: SchurElement) -> bool:
    """True iff x commutes with every basis element."""
    for D in enumerate_basis(x.n, x.d):
        g = SchurElement(x.n, x.d, {D: 1})
        if multiply(x, g) != multiply(g, x):
            return False
    return True


def primitive_idempotent(shape: Partition, n: int, d: int) -> SchurElement:
    """The minimal central idempotent indexed by ``shape``:

        (f / d!) * sum over classes mu of chi_shape(mu) * Z_mu,

    with f the standard tableau count of ``shape``.  For shapes with more
    than n parts the combination collapses to the zero element.
    """
    shape = check_partition(shape)
    if sum(shape) != d:
        raise ValueError(f"partition weight {sum(shape)} != d = {d}")
    f = tableaux_count(shape)
    weights = {
        mu: Fraction(f * ch, factorial(d))
        for mu in partitions_of(d)
        if (ch := character(shape, mu))
    }
    return SchurElement(n, d, {
        D: sum(w * _pair_count(mu, top, bottom) for mu, w in weights.items())
        for D, top, bottom in _square_block(n, d)
    })


def centre_dimension(n: int, d: int) -> int:
    """Rank of the class-sum images as vectors in the basis.

    The class sums always span the centre but are linearly dependent when
    n < d, so the rank is computed, not assumed.  Only the square block's
    columns can be nonzero, so only they are ranked.
    """
    block = _square_block(n, d)
    return rational_rank([
        [_pair_count(shape, top, bottom) for _, top, bottom in block]
        for shape in partitions_of(d)
    ])
