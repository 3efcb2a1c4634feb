import itertools
from collections import Counter
from math import factorial

import pytest
from hypothesis import given, strategies as st

from schuralg.partitions import (
    _strip_removals,
    character,
    check_partition,
    class_size,
    conjugate,
    cycle_type,
    hook_lengths,
    inverse_permutation,
    partitions_of,
    permutations_by_type,
    permute_positions,
    tableaux_count,
)


# ---------------------------------------------------------------- oracles

def brute_partitions(d: int) -> set[tuple[int, ...]]:
    """Independent enumeration: all weakly decreasing positive tuples of sum d."""
    if d == 0:
        return {()}
    out = set()
    def rec(remaining, max_part, prefix):
        if remaining == 0:
            out.add(tuple(prefix))
            return
        for part in range(min(remaining, max_part), 0, -1):
            rec(remaining - part, part, prefix + [part])
    rec(d, d, [])
    return out


def brute_class_size(shape: tuple[int, ...]) -> int:
    d = sum(shape)
    return sum(
        1 for w in itertools.permutations(range(1, d + 1)) if cycle_type(w) == shape
    )


def enumerate_standard_tableaux(shape: tuple[int, ...]) -> int:
    """Exhaustive count of standard fillings: rows and columns increase."""
    d = sum(shape)
    rows = len(shape)
    filled = [[0] * shape[r] for r in range(rows)]
    count = 0

    def place(v: int) -> None:
        nonlocal count
        if v > d:
            count += 1
            return
        for r in range(rows):
            c = next((j for j in range(shape[r]) if filled[r][j] == 0), None)
            if c is None:
                continue
            if r > 0 and (c >= shape[r - 1] or filled[r - 1][c] == 0):
                continue
            filled[r][c] = v
            place(v + 1)
            filled[r][c] = 0

    place(1)
    return count


def brute_rim_hooks(shape, length):
    """Independent enumeration: the shapes nu inside ``shape`` whose skew
    shape shape/nu has ``length`` cells, is connected and holds no 2 x 2
    square, each with its height, the number of rows it meets minus one."""
    cells = {(r, c) for r, row in enumerate(shape) for c in range(row)}
    out = []
    for nu in partitions_of(sum(shape) - length):
        if len(nu) > len(shape) or any(p > q for p, q in zip(nu, shape)):
            continue
        strip = cells - {(r, c) for r, row in enumerate(nu) for c in range(row)}
        if any({(r + 1, c), (r, c + 1), (r + 1, c + 1)} <= strip for r, c in strip):
            continue
        seen, todo = set(), [min(strip)]
        while todo:
            r, c = todo.pop()
            if (r, c) in strip and (r, c) not in seen:
                seen.add((r, c))
                todo += [(r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)]
        if seen == strip:
            out.append((nu, len({r for r, _ in strip}) - 1))
    return sorted(out)


@st.composite
def partition_strategy(draw, max_d=8):
    d = draw(st.integers(min_value=1, max_value=max_d))
    bins = draw(st.integers(min_value=1, max_value=d))
    assignment = draw(
        st.lists(st.integers(0, bins - 1), min_size=d, max_size=d)
    )
    return tuple(sorted(Counter(assignment).values(), reverse=True))


# ------------------------------------------------------------- partitions

def test_partitions_of_one():
    assert partitions_of(1) == ((1,),)


def test_partitions_of_four_reverse_lex():
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_partitions_of_zero():
    assert partitions_of(0) == ((),)


@pytest.mark.parametrize("second", [True, -1])
def test_partitions_of_takes_only_the_degree(second):
    # a bound on the largest part is private to the recursion
    with pytest.raises(TypeError):
        partitions_of(3, second)


def test_partition_counts_match_brute_force():
    for d in range(9):
        got = partitions_of(d)
        assert len(got) == len(set(got))
        assert set(got) == brute_partitions(d)
    assert len(partitions_of(6)) == 11


def test_partitions_reverse_lex_order():
    for d in range(1, 9):
        shapes = partitions_of(d)
        assert shapes == tuple(sorted(shapes, reverse=True))


@pytest.mark.parametrize(
    "parts",
    [(2.7, 1.2), (2.0, 1.0), ("2", "1"), (True,)],
    ids=["float", "integral-float", "str", "bool"],
)
def test_check_partition_rejects_non_int_parts(parts):
    with pytest.raises(ValueError):
        check_partition(parts)


@pytest.mark.parametrize(
    "images",
    [(2.5, 1.2), (2.0, 1.0), (True, 2), ("2", "1")],
    ids=["float", "integral-float", "bool", "str"],
)
def test_check_permutation_rejects_non_int_images(images):
    with pytest.raises(ValueError):
        cycle_type(images)


@given(partition_strategy())
def test_partition_strategy_members_are_enumerated(shape):
    assert shape in partitions_of(sum(shape))


@given(partition_strategy())
def test_conjugate_involution(shape):
    assert conjugate(conjugate(shape)) == shape
    assert sum(conjugate(shape)) == sum(shape)


# ------------------------------------------------------------ cycle types

def test_cycle_type_identity():
    assert cycle_type((1, 2, 3, 4)) == (1, 1, 1, 1)


def test_cycle_type_four_cycle():
    assert cycle_type((2, 3, 4, 1)) == (4,)


def test_cycle_type_double_transposition():
    assert cycle_type((2, 1, 4, 3)) == (2, 2)


def _compose(u, w):
    return tuple(u[w[k] - 1] for k in range(len(w)))


def test_cycle_type_invariance_exhaustive():
    # inverse and conjugation invariance, all of S_d for d <= 5
    for d in range(1, 6):
        perms = list(itertools.permutations(range(1, d + 1)))
        for w in perms:
            t = cycle_type(w)
            assert cycle_type(inverse_permutation(w)) == t
        for v in perms:
            vinv = inverse_permutation(v)
            for w in perms:
                assert cycle_type(_compose(_compose(v, w), vinv)) == cycle_type(w)


# ------------------------------------------------------------ class sizes

def test_class_size_identity_class():
    assert class_size((1, 1, 1, 1)) == 1


def test_class_size_matches_brute_force():
    assert class_size((4,)) == brute_class_size((4,)) == 6
    assert class_size((2, 1, 1)) == brute_class_size((2, 1, 1)) == 6
    for d in range(1, 7):
        for shape in partitions_of(d):
            assert class_size(shape) == brute_class_size(shape)


def test_class_sizes_sum_to_group_order():
    for d in range(1, 7):
        assert sum(class_size(s) for s in partitions_of(d)) == factorial(d)


def test_permutations_by_type_partition_of_group():
    for d in range(1, 6):
        groups = permutations_by_type(d)
        assert sum(len(ws) for ws in groups.values()) == factorial(d)
        for shape, ws in groups.items():
            assert len(ws) == class_size(shape)


# --------------------------------------------------------------- tableaux

def test_tableaux_count_single_row():
    for d in range(1, 8):
        assert tableaux_count((d,)) == 1


def test_tableaux_count_small_shapes():
    assert tableaux_count((2, 2)) == enumerate_standard_tableaux((2, 2)) == 2
    assert tableaux_count((3, 1)) == enumerate_standard_tableaux((3, 1)) == 3


def test_hook_formula_matches_enumeration():
    for d in range(1, 7):
        for shape in partitions_of(d):
            assert tableaux_count(shape) == enumerate_standard_tableaux(shape)


def test_hook_lengths_of_two_two():
    assert sorted(hook_lengths((2, 2))) == [1, 2, 2, 3]


@given(partition_strategy(max_d=7))
def test_hook_formula_positive_and_divides(shape):
    f = tableaux_count(shape)
    assert f >= 1
    assert factorial(sum(shape)) % f == 0


# ------------------------------------------------------------- characters

def test_trivial_character():
    for d in range(1, 7):
        for mu in partitions_of(d):
            assert character((d,), mu) == 1


def test_sign_character():
    for d in range(1, 7):
        for mu in partitions_of(d):
            assert character((1,) * d, mu) == (-1) ** (d - len(mu))


def test_character_two_two_at_two_one_one():
    assert character((2, 2), (2, 1, 1)) == 0


def test_character_table_s4_frozen():
    # verified against orthogonality, hook counts and the sign/trivial rows
    shapes = partitions_of(4)
    expected = {
        (4,): [1, 1, 1, 1, 1],
        (3, 1): [-1, 0, -1, 1, 3],
        (2, 2): [0, -1, 2, 0, 2],
        (2, 1, 1): [1, 0, -1, -1, 3],
        (1, 1, 1, 1): [-1, 1, 1, -1, 1],
    }
    for shape in shapes:
        assert [character(shape, mu) for mu in shapes] == expected[shape]


def test_character_identity_column_is_tableaux_count():
    for d in range(1, 9):
        for shape in partitions_of(d):
            assert character(shape, (1,) * d) == tableaux_count(shape)


def test_first_orthogonality():
    for d in range(1, 9):
        shapes = partitions_of(d)
        for a in shapes:
            for b in shapes:
                s = sum(
                    class_size(mu) * character(a, mu) * character(b, mu)
                    for mu in shapes
                )
                assert s == (factorial(d) if a == b else 0)


def test_strip_removals_are_the_rim_hooks():
    for d in range(1, 11):
        for shape in partitions_of(d):
            for length in range(1, d + 1):
                got = sorted(_strip_removals(shape, length))
                assert got == brute_rim_hooks(shape, length), (shape, length)


def test_character_weight_mismatch_raises():
    with pytest.raises(ValueError):
        character((2, 1), (2, 2))


def test_permute_positions_action():
    # letter at slot k of the result comes from slot w(k)
    assert permute_positions((2, 3, 1), (5, 6, 7)) == (6, 7, 5)
