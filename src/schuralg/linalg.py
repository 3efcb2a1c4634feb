"""Exact linear algebra over the rationals (just enough for rank counts)."""

from __future__ import annotations

from fractions import Fraction


def rational_rank(rows: list[list[Fraction | int]]) -> int:
    """Rank of a matrix given as a list of rows, by Gaussian elimination."""
    if not rows:
        return 0
    work = [list(map(Fraction, row)) for row in rows]
    ncols = len(work[0])
    if any(len(row) != ncols for row in work):
        raise ValueError("ragged matrix")
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        lead = work[rank][col]
        work[rank] = [v / lead for v in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[rank])]
        rank += 1
        if rank == len(work):
            break
    return rank
