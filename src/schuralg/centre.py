"""The centre of S(n,d): class-sum images, centrality, primitive idempotents.

Each conjugacy class of the symmetric group, summed inside the algebra,
lands in the centre.  The expansion coefficient of a class sum on a basis
index D is a permutation count: with (top, bottom) the canonical word pair
of D, it is the number of permutations of the prescribed cycle type
carrying bottom to top under the position action.

Those permutations are counted without scanning S_d.  A permutation
carries bottom to top exactly when it sends the positions of each letter
a in top onto the positions of a in bottom, so the carriers are the
prod_a c_a! bijections built letter by letter (c_a the multiplicity of a).
One histogram of their cycle types per word pair serves every shape.
``verification.check_action_convention`` keeps the full S_d scan as the
independent route and compares it with ``class_coefficient``.

The stored action convention is w . word = (word[w[1]-1], ..., word[w[d]-1]).
Counting with w or with its inverse gives the same coefficients because
cycle type is inversion invariant; the tests assert that equality instead
of assuming it.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .basis import (
    Matrix,
    MultiIndex,
    SchurElement,
    canonical_pair,
    check_ambient,
    check_matrix,
    col_sums,
    enumerate_basis,
    row_sums,
    weight_block,
)
from .linalg import rational_rank
from .multiplication import compositions, multiply
from .partitions import (
    Partition,
    _cycle_type,
    character,
    check_partition,
    partitions_of,
    tableaux_count,
)


@lru_cache(maxsize=None)
def _cycle_type_histogram(top: MultiIndex, bottom: MultiIndex) -> dict[Partition, int]:
    """Cycle type -> number of permutations carrying ``bottom`` to ``top``.

    ``top`` is a canonical top word, hence sorted: the positions of each
    letter form one run, in letter order.  So a carrier in one-line
    notation is, letter by letter, an arrangement of the positions of that
    letter in ``bottom``.  Words of different content have no carrier.
    """
    if sorted(bottom) != list(top):
        return {}
    positions: dict[int, list[int]] = {}
    for k, letter in enumerate(bottom, 1):
        positions.setdefault(letter, []).append(k)
    counts: Counter[Partition] = Counter()
    for runs in itertools.product(
        *(itertools.permutations(positions[a]) for a in sorted(positions))
    ):
        counts[_cycle_type([k for run in runs for k in run])] += 1
    return dict(counts)


@lru_cache(maxsize=None)
def _pair_count(shape: Partition, top: MultiIndex, bottom: MultiIndex) -> int:
    return _cycle_type_histogram(top, bottom).get(shape, 0)


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
    return [member for mu in compositions(d, (d,) * n) for member in weight_block(mu, mu)]


def centre_basis_element(shape: Partition, n: int, d: int) -> SchurElement:
    """Image of the class sum of cycle type ``shape`` inside S(n,d)."""
    check_ambient(n, d)
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
    check_ambient(n, d)
    shape = check_partition(shape)
    if sum(shape) != d:
        raise ValueError(f"partition weight {sum(shape)} != d = {d}")
    f, order = tableaux_count(shape), factorial(d)
    chars = {mu: ch for mu in partitions_of(d) if (ch := character(shape, mu))}
    return SchurElement(n, d, {
        D: Fraction(
            f * sum(ch * _pair_count(mu, top, bottom) for mu, ch in chars.items()), order
        )
        for D, top, bottom in _square_block(n, d)
    })


def centre_dimension(n: int, d: int) -> int:
    """Rank of the class-sum images as vectors in the basis.

    The class sums always span the centre but are linearly dependent when
    n < d, so the rank is computed, not assumed.  Only the square block's
    columns can be nonzero, so only they are ranked.
    """
    check_ambient(n, d)
    block = _square_block(n, d)
    return rational_rank([
        [_pair_count(shape, top, bottom) for _, top, bottom in block]
        for shape in partitions_of(d)
    ])
