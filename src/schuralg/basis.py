"""The matrix-indexed basis of S(n,d) and exact element arithmetic.

A basis index is an n x n matrix of nonnegative integers with entry sum d.
Row index = destination letter, column index = source letter: entry (i, j)
counts positions where an input letter j is sent to an output letter i.
Equivalently, in the bipartite multigraph picture, entry (i, j) is the
number of edges from source vertex j (first row) to destination vertex i
(second row).

A basis element acts on the free module spanned by multi-indices
(length-d words over {1, ..., n}): it sends a word j to the sum of all
words i whose pairing with j realizes exactly the index matrix.

The basis splits into weight blocks, one per (row sums, column sums) pair.
Each block is built on demand from the words of one letter content: its
members are the canonical word pairs whose top is the sorted word.

Elements of the algebra are finitely supported rational combinations of
basis indices, held in canonical sparse form (no zero coefficients).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, NamedTuple, Sequence

Matrix = tuple[tuple[int, ...], ...]
MultiIndex = tuple[int, ...]
Scalar = Fraction | int


class GeneralizedPermutation(NamedTuple):
    """Two-line array with columns in nondecreasing lexicographic order.

    ``top`` holds destination letters, ``bottom`` source letters; column k
    is the pair (top[k], bottom[k]).
    """

    top: MultiIndex
    bottom: MultiIndex


def check_degree(d: int) -> None:
    """The d rule of ``check_ambient``: an int, not a bool or float, and >= 0."""
    if type(d) is not int or d < 0:
        raise ValueError(f"need d >= 0, got {d}")


def check_ambient(n: int, d: int) -> None:
    """The size rule of every (n, d) entry point: ints, not bools or floats,
    with n >= 1 and d >= 0."""
    if type(n) is not int or n < 1 or type(d) is not int or d < 0:
        raise ValueError(f"need n >= 1 and d >= 0, got ({n}, {d})")


def check_matrix(entries: Matrix) -> tuple[int, int]:
    """Validate a square matrix of nonnegative ints (bools and floats are
    refused); return (n, entry sum)."""
    n = len(entries)
    if n == 0 or any(len(row) != n for row in entries):
        raise ValueError(f"index matrix must be square and nonempty: {entries!r}")
    if any(type(v) is not int or v < 0 for row in entries for v in row):
        raise ValueError(f"index matrix entries must be nonnegative ints: {entries!r}")
    return n, sum(v for row in entries for v in row)


def row_sums(entries: Matrix) -> tuple[int, ...]:
    return tuple(map(sum, entries))


def col_sums(entries: Matrix) -> tuple[int, ...]:
    return tuple(map(sum, zip(*entries)))


def basis_count(n: int, d: int) -> int:
    """|M(n,d)| = C(n^2 + d - 1, d), computed without enumeration."""
    check_ambient(n, d)
    return comb(n * n + d - 1, d)


@lru_cache(maxsize=None, typed=True)
def enumerate_basis(n: int, d: int) -> tuple[Matrix, ...]:
    """All index matrices for (n, d), in lexicographic order of the row-major
    entry sequence: each is a multiset of d cells, and the sorted cell lists
    come in increasing order, which is decreasing order of the counts."""
    check_ambient(n, d)
    out = []
    for cells in itertools.combinations_with_replacement(range(n * n), d):
        flat = [0] * (n * n)
        for cell in cells:
            flat[cell] += 1
        out.append(tuple(tuple(flat[r * n:(r + 1) * n]) for r in range(n)))
    return tuple(reversed(out))


def words_of_content(mu: tuple[int, ...]) -> Iterator[MultiIndex]:
    """The words in which letter a occurs mu[a-1] times, in lexicographic
    order; the first is the sorted word."""
    if not any(mu):
        yield ()
        return
    for a, count in enumerate(mu):
        if count:
            rest = (*mu[:a], count - 1, *mu[a + 1:])
            for tail in words_of_content(rest):
                yield (a + 1, *tail)


def compositions(total: int, caps: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every vector of nonnegative integers with sum ``total`` and entry c at
    most ``caps[c]``, in decreasing lexicographic order; ``caps`` is nonempty."""
    if len(caps) == 1:
        if total <= caps[0]:
            yield (total,)
        return
    rest = caps[1:]
    for v in range(min(total, caps[0]), max(total - sum(rest), 0) - 1, -1):
        for tail in compositions(total - v, rest):
            yield (v, *tail)


def _contingency_tables(
    rsums: tuple[int, ...], csums: tuple[int, ...]
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All nonnegative integer matrices with the given row and column sums,
    in decreasing row-major lexicographic order."""
    if sum(rsums) != sum(csums):
        return
    if len(rsums) == 1:
        yield (tuple(csums),)
        return
    for row in compositions(rsums[0], csums):
        remaining = tuple(c - v for c, v in zip(csums, row))
        for rest in _contingency_tables(rsums[1:], remaining):
            yield (row, *rest)


def _sorted_word(counts: Sequence[int]) -> MultiIndex:
    """The nondecreasing word in which letter a occurs counts[a-1] times."""
    return tuple(a for a, count in enumerate(counts, 1) for _ in range(count))


@lru_cache(maxsize=None)
def weight_block(
    rows: tuple[int, ...], cols: tuple[int, ...]
) -> tuple[tuple[Matrix, MultiIndex, MultiIndex], ...]:
    """The index matrices with row sums ``rows`` and column sums ``cols``,
    each as (D, top, bottom) with D's canonical word pair: ``top`` is the
    sorted word of content ``rows``, and the bottoms are the words of content
    ``cols`` nondecreasing along each run of equal letters in ``top``, in
    lexicographic order.

    The run of top letter a is the sorted word of row a of D, so the walk
    picks the rows one at a time, each a composition of rows[a] within the
    column sums left over; decreasing order of the rows is increasing order
    of the bottoms, and no discarded word is built.
    """
    if len(rows) != len(cols) or sum(rows) != sum(cols):
        raise ValueError(f"row sums {rows} and column sums {cols} differ in length or total")
    top = _sorted_word(rows)
    return tuple(
        (D, top, sum(map(_sorted_word, D), ()))
        for D in _contingency_tables(rows, cols)
    )


@lru_cache(maxsize=16, typed=True)
def meeting_index(
    n: int, d: int
) -> dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]]:
    """For each weight mu of Lambda(n,d), in the order of ``compositions``,
    the increasing positions in ``enumerate_basis(n, d)`` of the indices
    with row sums mu (xs) and of those with column sums mu (ys).

    The meeting rule: the product of basis indices x and y is zero unless
    row_sums(x) = col_sums(y), since its middle words have content both.
    So the meeting pairs, those whose product can be nonzero, are xs x ys
    over the weights, sum |xs| |ys| in all.
    """
    B = enumerate_basis(n, d)
    index = {mu: ([], []) for mu in compositions(d, (d,) * n)}
    for k, D in enumerate(B):
        index[row_sums(D)][0].append(k)
        index[col_sums(D)][1].append(k)
    return {mu: (tuple(xs), tuple(ys)) for mu, (xs, ys) in index.items()}


def generator_indices(n: int, d: int) -> tuple[Matrix, ...]:
    """The basis indices of the Chevalley-type generators of S(n,d) over Q
    (Doty and Giaquinto, "Presenting Schur algebras", IMRN 2002).

    The weight idempotents 1_lambda are the |Lambda(n,d)| diagonal indices,
    the terms of ``identity_element``.
    Each nonzero piece 1_mu e_i 1_lambda or 1_mu f_i 1_lambda is one basis
    element: a diagonal index of entry sum d - 1 plus one unit at (i, i+1)
    or at (i+1, i), 2(n-1)|Lambda(n,d-1)| indices in all.  Sums of these
    pieces give e_i and f_i, so an element is central iff it commutes with
    every index listed here.
    """
    diagonal = identity_element(n, d).terms
    shorter = itertools.combinations_with_replacement(range(1, n + 1), d - 1) if d else ()
    pieces = [
        matrix_from_pair((*word, a), (*word, b), n)
        for word in shorter
        for i in range(1, n)
        for a, b in ((i, i + 1), (i + 1, i))
    ]
    return (*diagonal, *pieces)


def content(word: MultiIndex, n: int) -> tuple[int, ...]:
    """Letter multiplicities of a word over {1, ..., n}."""
    counts = [0] * n
    for letter in word:
        if not 1 <= letter <= n:
            raise ValueError(f"letter {letter} outside 1..{n}")
        counts[letter - 1] += 1
    return tuple(counts)


def matrix_from_pair(i: MultiIndex, j: MultiIndex, n: int) -> Matrix:
    """Index matrix of the pair: entry (a, b) counts positions k with
    (i[k], j[k]) = (a, b)."""
    if len(i) != len(j):
        raise ValueError(f"length mismatch: {len(i)} vs {len(j)}")
    m = [[0] * n for _ in range(n)]
    for a, b in zip(i, j):
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValueError(f"letter pair ({a},{b}) outside 1..{n}")
        m[a - 1][b - 1] += 1
    return tuple(tuple(row) for row in m)


def canonical_pair(entries: Matrix) -> GeneralizedPermutation:
    """The unique sorted two-line array whose pair matrix is ``entries``.

    The cells in row-major order are the columns (a, b) in sorted order,
    so the run of top letter a is the sorted word of row a, as in
    ``weight_block``.  Round-trips with matrix_from_pair.
    """
    check_matrix(entries)
    return GeneralizedPermutation(
        top=_sorted_word(row_sums(entries)),
        bottom=sum(map(_sorted_word, entries), ()),
    )


def apply_basis(entries: Matrix, word: MultiIndex) -> dict[MultiIndex, int]:
    """Image of the word under the basis element: {output word: 1} for each
    word u, in lexicographic order, whose pair matrix with the word is the
    index matrix.

    Nonempty only when the column sums of the matrix equal the content of
    the word; the outputs then have content its row sums, and only those
    words are tried, not the full n^d word space.
    """
    n, d = check_matrix(entries)
    if len(word) != d:
        raise ValueError(f"word length {len(word)} != entry sum {d}")
    if col_sums(entries) != content(word, n):
        return {}
    return {u: 1 for u in words_of_content(row_sums(entries))
            if matrix_from_pair(u, word, n) == entries}


def _coerce_scalar(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"scalar must be int or Fraction, got {type(value).__name__}")


class SchurElement:
    """A finitely supported rational combination of basis indices.

    Stored in canonical sparse form: no zero coefficients, every key an
    n x n matrix with entry sum d.  Instances are treated as immutable;
    equality is exact.
    """

    __slots__ = ("n", "d", "terms")

    def __init__(self, n: int, d: int, terms: dict[Matrix, Scalar] | None = None):
        check_ambient(n, d)
        self.n = n
        self.d = d
        clean: dict[Matrix, Fraction] = {}
        for key, value in (terms or {}).items():
            kn, kd = check_matrix(key)
            if kn != n or kd != d:
                raise ValueError(f"matrix {key!r} does not live in M({n},{d})")
            coeff = _coerce_scalar(value)
            if coeff:
                clean[key] = coeff
        self.terms = clean

    @classmethod
    def _trusted(cls, n: int, d: int, terms: dict[Matrix, Fraction]) -> SchurElement:
        """An element whose keys are known to lie in M(n, d) and whose
        coefficients are nonzero Fractions; nothing is re-validated."""
        element = object.__new__(cls)
        element.n, element.d, element.terms = n, d, terms
        return element

    @classmethod
    def zero(cls, n: int, d: int) -> SchurElement:
        return cls(n, d)

    def coefficient(self, entries: Matrix) -> Fraction:
        return self.terms.get(entries, Fraction(0))

    def support(self) -> tuple[Matrix, ...]:
        return tuple(sorted(self.terms))

    def sorted_terms(self) -> list[tuple[Matrix, Fraction]]:
        return sorted(self.terms.items())

    def is_zero(self) -> bool:
        return not self.terms

    def _check_ambient(self, other: SchurElement) -> None:
        if (self.n, self.d) != (other.n, other.d):
            raise ValueError(
                f"ambient mismatch: ({self.n},{self.d}) vs ({other.n},{other.d})"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SchurElement):
            return NotImplemented
        return (self.n, self.d) == (other.n, other.d) and self.terms == other.terms

    def __add__(self, other: SchurElement) -> SchurElement:
        if not isinstance(other, SchurElement):
            return NotImplemented
        self._check_ambient(other)
        merged = dict(self.terms)
        for key, value in other.terms.items():
            merged[key] = merged.get(key, 0) + value
        return SchurElement._trusted(self.n, self.d, {k: v for k, v in merged.items() if v})

    def __neg__(self) -> SchurElement:
        return SchurElement._trusted(self.n, self.d, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other: SchurElement) -> SchurElement:
        if not isinstance(other, SchurElement):
            return NotImplemented
        return self + (-other)

    def scale(self, value: Scalar) -> SchurElement:
        coeff = _coerce_scalar(value)
        terms = {k: coeff * v for k, v in self.terms.items() if coeff}
        return SchurElement._trusted(self.n, self.d, terms)

    def __mul__(self, other):
        if isinstance(other, SchurElement):
            from .multiplication import multiply

            return multiply(self, other)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __repr__(self) -> str:
        body = ", ".join(f"{key}: {value}" for key, value in self.sorted_terms())
        return f"SchurElement(n={self.n}, d={self.d}, {{{body}}})"


def basis_element(entries: Matrix) -> SchurElement:
    """The basis element indexed by a single matrix."""
    n, d = check_matrix(entries)
    return SchurElement._trusted(n, d, {entries: Fraction(1)})


def identity_element(n: int, d: int) -> SchurElement:
    """Sum of the diagonal basis indices, one per sorted word; the two-sided
    identity."""
    check_ambient(n, d)
    words = itertools.combinations_with_replacement(range(1, n + 1), d)
    return SchurElement._trusted(n, d, {matrix_from_pair(w, w, n): Fraction(1) for w in words})


def kronecker_sum(parts: Iterable[dict[Matrix, int]], bound: int, n: int, d: int) -> SchurElement:
    """The element sum_k B^k part_k of S(n,d), B = 2 bound + 1, zeros
    dropped; the keys come from elements of S(n,d) and are not re-validated.

    Kronecker substitution: if a linear law L gives values L(part_k) whose
    integer coefficients are at most ``bound`` in absolute value, each
    coefficient of L(sum) is the base-B expansion sum_k B^k L(part_k).  It
    is zero only if every digit is: the top nonzero digit at B^k outweighs
    the rest, at most (B^k - 1)/2.  So one exact product with the sum
    checks L on every part.  A structure constant counts middle words, so
    it is at most n^d.
    """
    base, power = 2 * bound + 1, 1
    terms: dict[Matrix, int] = {}
    for part in parts:
        for D, c in part.items():
            terms[D] = terms.get(D, 0) + power * c
        power *= base
    return SchurElement._trusted(n, d, {D: Fraction(c) for D, c in terms.items() if c})
