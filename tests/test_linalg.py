import random
from fractions import Fraction

import pytest

from schuralg.linalg import rational_rank


def gauss_jordan_rank(rows):
    """Independent route: reduced row echelon form over Fraction."""
    work = [list(map(Fraction, row)) for row in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        work[rank] = [v / work[rank][col] for v in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                work[r] = [a - work[r][col] * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def random_matrix(rng):
    """A seeded integer matrix: often wide, often rank deficient (rows built
    from a few generators), with zeroed rows and columns mixed in."""
    nrows, ncols = rng.randint(1, 7), rng.randint(1, 12)
    gens = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(rng.randint(1, nrows))]
    rows = [
        [sum(rng.randint(-3, 3) * g[c] for g in gens) for c in range(ncols)]
        for _ in range(nrows)
    ]
    for c in rng.sample(range(ncols), rng.randint(0, ncols // 2)):
        for row in rows:
            row[c] = 0
    if rng.random() < 0.3:
        rows[rng.randrange(nrows)] = [0] * ncols
    return rows


@pytest.mark.parametrize("seed", range(20))
def test_rank_matches_fraction_gauss_jordan(seed):
    rng = random.Random(seed)
    for _ in range(25):
        rows = random_matrix(rng)
        assert rational_rank(rows) == gauss_jordan_rank(rows)


def test_rank_of_empty_and_zero_matrices():
    assert rational_rank([]) == 0
    assert rational_rank([[0, 0, 0], [0, 0, 0]]) == 0
    assert rational_rank([[0], [5]]) == 1


def test_rank_does_not_mutate_its_input():
    rows = [[2, 4], [1, 3]]
    assert rational_rank(rows) == 2
    assert rows == [[2, 4], [1, 3]]


def test_rank_refuses_ragged_rows():
    with pytest.raises(ValueError, match="ragged matrix"):
        rational_rank([[1, 2], [3]])
