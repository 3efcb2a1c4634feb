"""Exact linear algebra over the integers (just enough for rank counts)."""

from __future__ import annotations


def rational_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix given as a list of rows, by fraction-free
    Bareiss elimination (Math. Comp. 22, 1968): every entry stays a minor of
    the matrix, so each division by the previous pivot is exact."""
    work = [list(row) for row in rows]
    ncols = len(work[0]) if work else 0
    if any(len(row) != ncols for row in work):
        raise ValueError("ragged matrix")
    rank, previous = 0, 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        lead = work[rank]
        p = lead[col]
        for r in range(rank + 1, len(work)):
            f = work[r][col]
            work[r] = [(p * v - f * u) // previous for v, u in zip(work[r], lead)]
        previous = p
        rank += 1
        if rank == len(work):
            break
    return rank
