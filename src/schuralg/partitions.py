"""Symmetric group combinatorics: partitions, cycle types, tableaux and characters.

Conventions used throughout the package:

- A partition is a weakly decreasing tuple of positive integers; the empty
  tuple is the unique partition of 0.
- A permutation of {1, ..., d} is a tuple in one-line notation with 1-based
  letters, so ``w[k - 1]`` is the image of ``k``.

All functions are pure and all values immutable, so concurrent reads are
safe.  The memoization tables (``functools.lru_cache``) are shared but
internally locked; the worst concurrent cost is a duplicated computation.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from math import factorial

Partition = tuple[int, ...]
Permutation = tuple[int, ...]


def check_partition(parts: tuple[int, ...]) -> Partition:
    """Validate and return a partition, raising ValueError if malformed."""
    parts = tuple(parts)
    if any(type(p) is not int or p < 1 for p in parts):
        raise ValueError(f"partition parts must be positive ints: {parts}")
    if any(parts[t] < parts[t + 1] for t in range(len(parts) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {parts}")
    return parts


def check_permutation(images: tuple[int, ...]) -> Permutation:
    """Validate a one-line permutation of 1..d; bools and floats are refused."""
    images, d = tuple(images), len(images)
    if any(type(v) is not int for v in images) or sorted(images) != list(range(1, d + 1)):
        raise ValueError(f"not a permutation of 1..{d}: {images}")
    return images


@lru_cache(maxsize=None)
def partitions_of(d: int, max_part: int | None = None) -> tuple[Partition, ...]:
    """All partitions of d, each once, in reverse lexicographic order.

    ``partitions_of(4)`` is ``((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))``.
    ``d = 0`` yields the single empty partition.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    if d == 0:
        return ((),)
    bound = d if max_part is None else min(max_part, d)
    out: list[Partition] = []
    for first in range(bound, 0, -1):
        for rest in partitions_of(d - first, first):
            out.append((first,) + rest)
    return tuple(out)


def conjugate(shape: Partition) -> Partition:
    if not shape:
        return ()
    return tuple(sum(1 for p in shape if p > i) for i in range(shape[0]))


def cycle_type(w: Permutation) -> Partition:
    """Cycle lengths of w, weakly decreasing; fixed points contribute 1s."""
    w = check_permutation(w)
    d = len(w)
    seen = [False] * (d + 1)
    lens = []
    for start in range(1, d + 1):
        if seen[start]:
            continue
        k, c = start, 0
        while not seen[k]:
            seen[k] = True
            c += 1
            k = w[k - 1]
        lens.append(c)
    return tuple(sorted(lens, reverse=True))


def inverse_permutation(w: Permutation) -> Permutation:
    inv = [0] * len(w)
    for pos, image in enumerate(w):
        inv[image - 1] = pos + 1
    return tuple(inv)


def permute_positions(w: Permutation, seq: tuple[int, ...]) -> tuple[int, ...]:
    """The position action: entry k of the result is ``seq[w[k] - 1]``."""
    return tuple(seq[w[k] - 1] for k in range(len(w)))


def class_size(shape: Partition) -> int:
    """Number of permutations of S_d with cycle type ``shape`` (d = |shape|)."""
    shape = check_partition(shape)
    d = sum(shape)
    z = 1
    for part, mult in Counter(shape).items():
        z *= part**mult * factorial(mult)
    return factorial(d) // z


@lru_cache(maxsize=None)
def permutations_by_type(d: int) -> dict[Partition, tuple[Permutation, ...]]:
    """All of S_d grouped by cycle type.  Intended for d <= 8."""
    groups: dict[Partition, list[Permutation]] = {}
    for w in itertools.permutations(range(1, d + 1)):
        groups.setdefault(cycle_type(w), []).append(w)
    return {shape: tuple(ws) for shape, ws in groups.items()}


def hook_lengths(shape: Partition) -> list[int]:
    shape = check_partition(shape)
    conj = conjugate(shape)
    return [
        (row - c) + (conj[c] - r) - 1
        for r, row in enumerate(shape)
        for c in range(row)
    ]


def tableaux_count(shape: Partition) -> int:
    """Number of standard Young tableaux of the given shape (hook length formula)."""
    shape = check_partition(shape)
    d = sum(shape)
    h = 1
    for length in hook_lengths(shape):
        h *= length
    return factorial(d) // h


def _strip_removals(shape: Partition, length: int):
    """Yield (smaller shape, strip height) for every removable border strip."""
    k = len(shape)
    for a in range(k):
        for b in range(a, k):
            new = list(shape)
            for i in range(a, b):
                new[i] = shape[i + 1] - 1
            new[b] = shape[a] - length + (b - a)
            if new[b] < 0:
                continue
            if b + 1 < k and new[b] < shape[b + 1]:
                continue
            if any(new[i] < new[i + 1] for i in range(len(new) - 1)):
                continue
            smaller = tuple(p for p in new if p > 0)
            if sum(smaller) == sum(shape) - length:
                yield smaller, b - a


@lru_cache(maxsize=None)
def character(shape: Partition, cls: Partition) -> int:
    """Irreducible character of S_d indexed by ``shape`` at the class ``cls``.

    Evaluated by the Murnaghan-Nakayama recurrence over border strips:
    peel a strip of size ``cls[0]`` in every possible way, recurse on the
    rest of the class, and weight by (-1)^height.
    """
    shape = check_partition(shape)
    cls = check_partition(cls)
    if sum(shape) != sum(cls):
        raise ValueError(f"weight mismatch: |{shape}| != |{cls}|")
    if sum(shape) == 0:
        return 1
    total = 0
    for smaller, height in _strip_removals(shape, cls[0]):
        total += (-1) ** height * character(smaller, cls[1:])
    return total
