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

Elements of the algebra are finitely supported rational combinations of
basis indices, held in canonical sparse form (no zero coefficients).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterator, NamedTuple

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
    return tuple(sum(row) for row in entries)


def col_sums(entries: Matrix) -> tuple[int, ...]:
    n = len(entries)
    return tuple(sum(entries[a][b] for a in range(n)) for b in range(n))


def is_diagonal(entries: Matrix) -> bool:
    return all(v == 0 for a, row in enumerate(entries) for b, v in enumerate(row) if a != b)


def basis_count(n: int, d: int) -> int:
    """|M(n,d)| = C(n^2 + d - 1, d), computed without enumeration."""
    return comb(n * n + d - 1, d)


@lru_cache(maxsize=None)
def enumerate_basis(n: int, d: int) -> tuple[Matrix, ...]:
    """All index matrices for (n, d), in lexicographic order of the row-major
    entry sequence."""
    if n < 1 or d < 0:
        raise ValueError(f"need n >= 1 and d >= 0, got ({n}, {d})")
    cells = n * n
    out: list[Matrix] = []
    flat = [0] * cells

    def fill(pos: int, remaining: int) -> None:
        if pos == cells - 1:
            flat[pos] = remaining
            out.append(tuple(tuple(flat[r * n:(r + 1) * n]) for r in range(n)))
            flat[pos] = 0
            return
        for v in range(remaining + 1):
            flat[pos] = v
            fill(pos + 1, remaining - v)
            flat[pos] = 0

    fill(0, d)
    return tuple(out)


@lru_cache(maxsize=None)
def weight_blocks(n: int, d: int) -> dict[tuple[MultiIndex, MultiIndex], list]:
    """The basis by weight block: each (row sums, column sums) key maps to its
    indices in ``enumerate_basis`` order, each as (D, top, bottom) with D's
    canonical word pair.  Shared by every caller; do not mutate."""
    blocks: dict = {}
    for D in enumerate_basis(n, d):
        blocks.setdefault((row_sums(D), col_sums(D)), []).append((D, *canonical_pair(D)))
    return blocks


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

    Round-trips with matrix_from_pair.
    """
    n, _ = check_matrix(entries)
    pairs: list[tuple[int, int]] = []
    for a in range(n):
        for b in range(n):
            pairs.extend([(a + 1, b + 1)] * entries[a][b])
    pairs.sort()
    return GeneralizedPermutation(
        top=tuple(p[0] for p in pairs),
        bottom=tuple(p[1] for p in pairs),
    )


def _multiset_arrangements(letters: list[int]) -> Iterator[tuple[int, ...]]:
    """Distinct orderings of a multiset of letters, in lexicographic order."""
    if not letters:
        yield ()
        return
    for v in sorted(set(letters)):
        rest = list(letters)
        rest.remove(v)
        for tail in _multiset_arrangements(rest):
            yield (v, *tail)


def apply_basis(entries: Matrix, word: MultiIndex) -> dict[MultiIndex, int]:
    """Image of the word under the basis element: {output word: 1}.

    Nonempty only when the column sums of the matrix equal the content of
    the word.  Candidates are built by distributing, over the positions of
    each input letter, the multiset of destination letters prescribed by
    that letter's column; the full n^d word space is never scanned.
    """
    n, d = check_matrix(entries)
    if len(word) != d:
        raise ValueError(f"word length {len(word)} != entry sum {d}")
    word_content = content(word, n)
    if col_sums(entries) != word_content:
        return {}
    positions = [[k for k in range(d) if word[k] == b + 1] for b in range(n)]
    column_letters = [
        [a + 1 for a in range(n) for _ in range(entries[a][b])] for b in range(n)
    ]
    out: dict[MultiIndex, int] = {}
    image = [0] * d
    for arrangements in itertools.product(*map(_multiset_arrangements, column_letters)):
        for cells, arrangement in zip(positions, arrangements):
            for pos, letter in zip(cells, arrangement):
                image[pos] = letter
        out[tuple(image)] = 1
    return out


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
        if n < 1 or d < 0:
            raise ValueError(f"need n >= 1 and d >= 0, got ({n}, {d})")
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
            merged[key] = merged.get(key, Fraction(0)) + value
        return SchurElement(self.n, self.d, merged)

    def __neg__(self) -> SchurElement:
        return SchurElement(self.n, self.d, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other: SchurElement) -> SchurElement:
        if not isinstance(other, SchurElement):
            return NotImplemented
        return self + (-other)

    def scale(self, value: Scalar) -> SchurElement:
        coeff = _coerce_scalar(value)
        return SchurElement(self.n, self.d, {k: coeff * v for k, v in self.terms.items()})

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
    return SchurElement(n, d, {entries: 1})


def identity_element(n: int, d: int) -> SchurElement:
    """Sum of the diagonal basis indices; the two-sided identity."""
    terms = {D: 1 for D in enumerate_basis(n, d) if is_diagonal(D)}
    return SchurElement(n, d, terms)
