"""The centre of S(n,d): class-sum images, centrality, primitive idempotents.

Each conjugacy class of the symmetric group, summed inside the algebra,
lands in the centre.  The expansion coefficient of a class sum on a basis
index D is a permutation count: with (top, bottom) the canonical word pair
of D, it is the number of permutations of the prescribed cycle type
carrying bottom to top under the position action.

Those permutations are counted without scanning S_d or listing them.  A
permutation carries bottom to top exactly when it sends the positions of
each letter a in top onto the positions of a in bottom.  Read position k
as an edge bottom[k] -> top[k] of the multigraph of D: a carrier is then a
transition system, at each letter a bijection from the c_a edges entering
it to the c_a edges leaving it (c_a the multiplicity of a), and its cycles
are the closed trails this produces.  ``_joined_paths`` counts them by
joining open paths one end at a time, memoised on the state of open paths,
so the prod_a c_a! carriers are never listed.  One histogram of their cycle
types per word pair serves every shape.
``verification.check_action_convention`` keeps the full S_d scan as the
independent route and compares it with ``class_coefficient``.

The stored action convention is w . word = (word[w[1]-1], ..., word[w[d]-1]).
Counting with w or with its inverse gives the same coefficients because
cycle type is inversion invariant; the tests assert that equality instead
of assuming it.

Centrality has two routes.  ``commutes_with_generators`` commutes with the
generators e_i, f_i and 1_lambda of S(n,d) over Q, one basis index per
nonzero weight piece (``basis.generator_indices``), all at once: two
products with their ``basis.kronecker_sum``; ``verify`` uses it and never
enumerates the basis.  ``is_central`` commutes with every basis element,
one pair of products each, and stays as the tests' independent route.
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
    check_ambient,
    check_matrix,
    col_sums,
    compositions,
    enumerate_basis,
    generator_indices,
    kronecker_sum,
    row_sums,
    weight_block,
)
from .linalg import rational_rank
from .multiplication import _numerators, multiply
from .partitions import (
    Partition,
    character,
    check_partition,
    partitions_of,
    tableaux_count,
)


Path = tuple[int, int, int]  # (end letter, start letter, length) of an open path
PathState = tuple[tuple[Path, int], ...]  # sorted (path, multiplicity) pairs


@lru_cache(maxsize=None)
def _cycle_type_histogram(top: MultiIndex, bottom: MultiIndex) -> dict[Partition, int]:
    """Cycle type -> number of permutations carrying ``bottom`` to ``top``.

    Position k is an edge bottom[k] -> top[k], an open path of length 1.
    A carrier matches, at each letter, the edges entering it with the edges
    leaving it, and its cycles are the closed trails this produces; the
    paths are joined by ``_joined_paths``.  Words of different content have
    no carrier.
    """
    if sorted(bottom) != list(top):
        return {}
    paths: dict[Path, int] = {}
    for t, b in zip(top, bottom):
        paths[t, b, 1] = paths.get((t, b, 1), 0) + 1
    closed, state = _settle(paths)
    return {_with(shape, closed): count for shape, count in _joined_paths(state)}


@lru_cache(maxsize=4096)
def _joined_paths(state: PathState) -> tuple[tuple[Partition, int], ...]:
    """Cycle type -> number of ways to close the open paths of ``state``
    into closed trails, matching the path ends at every letter one to one
    with the path starts there.

    The end of the smallest path is joined to each start at its letter: the
    weight of a join is the number of open paths with that start's
    descriptor, and a path that starts where it ends may also close on
    itself, one way, as a cycle of its length.
    """
    if not state:
        return (((), 1),)
    first = state[0][0]
    end, start, length = first
    rest = dict(state)
    _drop(rest, first)
    branches: list[tuple[int, tuple[int, ...], dict[Path, int]]] = []
    if start == end:
        branches.append((1, (length,), rest))
    for path, mult in rest.items():
        if path[1] == end:
            joined = rest.copy()
            _drop(joined, path)
            new = (path[0], start, length + path[2])
            joined[new] = joined.get(new, 0) + 1
            branches.append((mult, (), joined))
    counts: dict[Partition, int] = {}
    for weight, closed, paths in branches:
        more, sub = _settle(paths)
        for shape, count in _joined_paths(sub):
            shape = _with(shape, closed + more)
            counts[shape] = counts.get(shape, 0) + weight * count
    return tuple(counts.items())


def _settle(paths: dict[Path, int]) -> tuple[tuple[int, ...], PathState]:
    """Join at every letter with one path start left, which leaves no
    choice, and renumber the letters still present 0..k-1 in order, so that
    equal states at different letters share one ``_joined_paths`` entry.
    Returns the lengths of the cycles closed on the way and the state.
    Mutates ``paths``.

    A join at one letter leaves the number of starts at every other letter
    as it was, so one count of the starts finds every such letter, and a
    path through such a letter is the only one with its descriptor."""
    starts: dict[int, int] = {}
    for (_, s, _), mult in paths.items():
        starts[s] = starts.get(s, 0) + mult
    closed: list[int] = []
    into: dict[int, Path] = {}
    out: dict[int, Path] = {}
    for path in paths:
        if starts[path[0]] == 1:
            into[path[0]] = path
        if starts[path[1]] == 1:
            out[path[1]] = path
    for letter in list(into):
        first, then = into.pop(letter), out.pop(letter)
        del paths[first]
        if first == then:
            closed.append(first[2])
            continue
        del paths[then]
        joined = (then[0], first[1], first[2] + then[2])
        paths[joined] = paths.get(joined, 0) + 1
        if joined[0] in into:
            into[joined[0]] = joined
        if joined[1] in out:
            out[joined[1]] = joined
    rank = {a: i for i, a in enumerate(sorted(a for a, c in starts.items() if c > 1))}
    return tuple(closed), tuple(sorted(
        ((rank[e], rank[s], length), mult) for (e, s, length), mult in paths.items()
    ))


def _drop(paths: dict[Path, int], path: Path) -> None:
    mult = paths.pop(path)
    if mult > 1:
        paths[path] = mult - 1


def _with(shape: Partition, lengths: tuple[int, ...]) -> Partition:
    return tuple(sorted(shape + lengths, reverse=True)) if lengths else shape


@lru_cache(maxsize=4096)
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
    return SchurElement._trusted(n, d, {
        D: Fraction(count)
        for D, top, bottom in _square_block(n, d)
        if (count := _pair_count(shape, top, bottom))
    })


def is_central(x: SchurElement) -> bool:
    """True iff x commutes with every basis element."""
    for D in enumerate_basis(x.n, x.d):
        g = SchurElement(x.n, x.d, {D: 1})
        if multiply(x, g) != multiply(g, x):
            return False
    return True


def commutes_with_generators(x: SchurElement) -> bool:
    """True iff x commutes with every index of ``generator_indices``, the
    Chevalley-type generators of S(n,d) over Q; that is, iff x is central.
    ``is_central``, which multiplies by the whole basis, stays the
    independent route.

    Two exact products, x G and G x, with G the ``kronecker_sum`` of every
    generator.  With L the lcm of x's denominators and S the l1 norm of
    L x, a coefficient of L [x, g_k] is at most 2 n^d S, the bound; the
    products are taken with x itself.  One G per weight would lower the
    peak memory but took 1.4 to 1.7 times as long at (4,6).
    """
    _, numerators = _numerators(x)
    bound = 2 * x.n**x.d * sum(map(abs, numerators.values()))
    g = kronecker_sum([{D: 1} for D in generator_indices(x.n, x.d)], bound, x.n, x.d)
    return multiply(x, g) == multiply(g, x)


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
    coefficients = (
        (D, Fraction(f * sum(ch * _pair_count(mu, top, bottom) for mu, ch in chars.items()), order))
        for D, top, bottom in _square_block(n, d)
    )
    return SchurElement._trusted(n, d, {D: c for D, c in coefficients if c})


def centre_dimension(n: int, d: int) -> int:
    """Rank of the class-sum images as vectors in the basis.

    The class sums always span the centre but are linearly dependent when
    n < d, so the rank is computed, not assumed.  Only the square block's
    columns can be nonzero, and a repeated column leaves the rank as it is,
    so only the distinct columns of the square block are ranked.
    """
    check_ambient(n, d)
    shapes = partitions_of(d)
    columns = dict.fromkeys(
        tuple(_pair_count(shape, top, bottom) for shape in shapes)
        for _, top, bottom in _square_block(n, d)
    )
    return rational_rank([list(column) for column in columns])
