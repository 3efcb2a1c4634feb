import itertools
from fractions import Fraction
from math import comb

import pytest

from schuralg.basis import (
    SchurElement,
    apply_basis,
    basis_count,
    basis_element,
    canonical_pair,
    col_sums,
    content,
    enumerate_basis,
    generator_indices,
    identity_element,
    kronecker_sum,
    matrix_from_pair,
    meeting_index,
    row_sums,
    weight_block,
    words_of_content,
)
from schuralg.centre import centre_basis_element, centre_dimension, primitive_idempotent
from schuralg.multiplication import compositions, multiply
from schuralg.partitions import partitions_of, permutations_by_type, permute_positions


# ---------------------------------------------------------------- oracles

def is_diagonal(entries) -> bool:
    return all(v == 0 for a, row in enumerate(entries) for b, v in enumerate(row) if a != b)


def brute_basis(n: int, d: int) -> set[tuple[tuple[int, ...], ...]]:
    """Independent generation: scan all entry vectors summing to d."""
    cells = n * n
    out = set()
    for entries in itertools.product(range(d + 1), repeat=cells):
        if sum(entries) == d:
            out.add(tuple(entries[r * n:(r + 1) * n] for r in range(n)))
    return out


def brute_apply(D, word, n):
    """Scan every candidate output word and filter by the pair matrix."""
    d = len(word)
    return {
        i: 1
        for i in itertools.product(range(1, n + 1), repeat=d)
        if matrix_from_pair(i, word, n) == D
    }


# -------------------------------------------------------------- basis set

def test_enumerate_basis_single_letter():
    for d in range(5):
        assert enumerate_basis(1, d) == (((d,),),)


def test_enumerate_basis_two_two():
    B = enumerate_basis(2, 2)
    assert len(B) == comb(5, 2) == 10
    assert set(B) == brute_basis(2, 2)


def test_enumerate_basis_counts():
    for n in range(1, 5):
        for d in range(5):
            B = enumerate_basis(n, d)
            assert len(B) == len(set(B)) == comb(n * n + d - 1, d) == basis_count(n, d)


def test_enumerate_basis_lexicographic():
    for (n, d) in [(2, 3), (3, 2)]:
        B = enumerate_basis(n, d)
        flat = [tuple(v for row in D for v in row) for D in B]
        assert flat == sorted(flat)


def test_enumerate_basis_strictly_increasing_everywhere_small():
    for n in range(1, 4):
        for d in range(6):
            flat = [tuple(v for row in D for v in row) for D in enumerate_basis(n, d)]
            assert all(a < b for a, b in zip(flat, flat[1:]))
            assert len(flat) == basis_count(n, d)


def test_enumerate_basis_contains_expansion_matrices():
    # the distinct matrices of the documented (2,4) class-sum expansions
    needed = [
        ((4, 0), (0, 0)), ((3, 0), (0, 1)), ((2, 1), (1, 0)),
        ((2, 0), (0, 2)), ((1, 1), (1, 1)), ((1, 0), (0, 3)),
        ((0, 2), (2, 0)), ((0, 1), (1, 2)), ((0, 0), (0, 4)),
    ]
    B = set(enumerate_basis(2, 4))
    for D in needed:
        assert D in B


# ------------------------------------------------- words and weight blocks

@pytest.mark.parametrize("n, d", [(1, 3), (2, 0), (2, 4), (3, 3)])
def test_words_of_content_partition_the_word_space(n, d):
    seen = []
    for mu in compositions(d, (d,) * n):
        words = list(words_of_content(mu))
        assert words == sorted(set(words))
        assert all(content(w, n) == mu for w in words)
        seen += words
    assert sorted(seen) == list(itertools.product(range(1, n + 1), repeat=d))


@pytest.mark.parametrize("n, d", [(1, 3), (2, 0), (2, 4), (3, 3)])
def test_weight_blocks_partition_the_basis(n, d):
    seen = []
    weights = list(compositions(d, (d,) * n))
    for rows in weights:
        for cols in weights:
            for D, top, bottom in weight_block(rows, cols):
                assert (row_sums(D), col_sums(D)) == (rows, cols)
                assert (top, bottom) == canonical_pair(D)
                seen.append(D)
    assert sorted(seen) == list(enumerate_basis(n, d))


def filtered_weight_block(rows, cols):
    """Independent route: every word of content ``cols``, kept when it is
    nondecreasing along each run of equal letters in the sorted top word."""
    top = next(words_of_content(rows))
    runs = [k for k in range(1, len(top)) if top[k - 1] == top[k]]
    return tuple(
        (matrix_from_pair(top, bottom, len(rows)), top, bottom)
        for bottom in words_of_content(cols)
        if all(bottom[k - 1] <= bottom[k] for k in runs)
    )


@pytest.mark.parametrize("n, d", [(2, 6), (3, 4), (4, 3)])
def test_weight_block_matches_filter_in_order(n, d):
    weights = list(compositions(d, (d,) * n))
    for rows in weights:
        for cols in weights:
            assert weight_block(rows, cols) == filtered_weight_block(rows, cols)


def test_weight_block_matches_filter_on_square_blocks():
    for rows in compositions(8, (8,) * 3):
        assert weight_block(rows, rows) == filtered_weight_block(rows, rows)


@pytest.mark.parametrize(
    "rows, cols", [((2, 1), (1, 1)), ((1, 1), (2, 1)), ((2, 0), (1, 1, 0)), ((1, 1, 0), (2, 0))]
)
def test_weight_block_refuses_sums_that_differ(rows, cols):
    with pytest.raises(ValueError):
        weight_block(rows, cols)


@pytest.mark.parametrize("n, d", [(1, 0), (2, 0), (1, 3), (2, 3), (3, 3), (2, 6)])
def test_meeting_index_groups_the_basis_by_each_margin(n, d):
    B, index = enumerate_basis(n, d), meeting_index(n, d)
    assert set(index) == set(compositions(d, (d,) * n))
    for side, margin in enumerate((row_sums, col_sums)):
        groups = [group[side] for group in index.values()]
        assert sorted(k for group in groups for k in group) == list(range(len(B)))
        assert all(list(group) == sorted(group) for group in groups)
        assert all(margin(B[k]) == mu for mu, group in index.items() for k in group[side])


@pytest.mark.parametrize("n, d", [(1, 0), (2, 0), (1, 3), (2, 3), (3, 3), (2, 6)])
def test_meeting_index_counts_the_meeting_pairs(n, d):
    B = enumerate_basis(n, d)
    brute = sum(row_sums(x) == col_sums(y) for x in B for y in B)
    assert sum(len(xs) * len(ys) for xs, ys in meeting_index(n, d).values()) == brute


# ------------------------------------------------------------- generators

@pytest.mark.parametrize("n, d", [(1, 0), (1, 1), (1, 4), (2, 0), (2, 1), (3, 1), (3, 3), (4, 2)])
def test_generator_count(n, d):
    weights = comb(n + d - 1, d)
    shorter = comb(n + d - 2, d - 1) if d else 0
    indices = generator_indices(n, d)
    assert len(indices) == len(set(indices)) == weights + 2 * (n - 1) * shorter
    assert all(D in enumerate_basis(n, d) for D in indices)
    assert sum(map(is_diagonal, indices)) == weights
    for D in indices:
        off = [(a, b) for a in range(n) for b in range(n) if a != b and D[a][b]]
        assert is_diagonal(D) or (len(off) == 1 and abs(off[0][0] - off[0][1]) == 1
                                  and D[off[0][0]][off[0][1]] == 1)


def span_closure_dimension(indices) -> int:
    """Dimension of the subalgebra generated by the given basis indices:
    close their span under right multiplication by them, reducing each new
    product against pivots keyed by leading index."""
    gens = [basis_element(D) for D in indices]
    pivots: dict = {}

    def independent(x: SchurElement) -> bool:
        while not x.is_zero():
            lead = max(x.terms)
            if lead not in pivots:
                pivots[lead] = x
                return True
            p = pivots[lead]
            x = x - p.scale(x.terms[lead] / p.terms[lead])
        return False

    frontier = [g for g in gens if independent(g)]
    while frontier:
        frontier = [xg for x in frontier for g in gens if independent(xg := multiply(x, g))]
    return len(pivots)


@pytest.mark.parametrize("n, d", [(2, 3), (3, 3), (2, 5)])
def test_generators_generate_the_algebra(n, d):
    assert span_closure_dimension(generator_indices(n, d)) == basis_count(n, d)


@pytest.mark.parametrize("n, d", [(2, 3), (3, 3)])
def test_generator_closure_needs_both_orientations(n, d):
    # the closure is not vacuous: the weight idempotents alone span only
    # themselves, and the units above the diagonal alone miss the rest
    diagonal = [D for D in generator_indices(n, d) if is_diagonal(D)]
    upper = [D for D in generator_indices(n, d) if all(
        not D[a][b] for a in range(n) for b in range(a))]
    assert span_closure_dimension(diagonal) == len(diagonal)
    assert len(diagonal) < span_closure_dimension(upper) < basis_count(n, d)


# --------------------------------------------------------- pairs <-> matrices

def test_matrix_from_pair_constant_words():
    d = 5
    ones = (1,) * d
    D = matrix_from_pair(ones, ones, 3)
    assert D[0][0] == d and sum(v for row in D for v in row) == d


def test_matrix_from_pair_worked_values():
    D = matrix_from_pair((1, 1, 2, 2, 2), (1, 1, 1, 3, 3), 3)
    assert D == ((2, 0, 0), (1, 0, 2), (0, 0, 0))


def test_matrix_from_pair_position_invariance():
    i = (1, 2, 1, 3)
    j = (2, 2, 1, 1)
    base = matrix_from_pair(i, j, 3)
    for w in itertools.permutations(range(1, 5)):
        wi = permute_positions(w, i)
        wj = permute_positions(w, j)
        assert matrix_from_pair(wi, wj, 3) == base


def test_matrix_from_pair_length_mismatch():
    with pytest.raises(ValueError):
        matrix_from_pair((1, 2), (1,), 2)


def test_canonical_pair_diagonal():
    D = ((3, 0), (0, 0))
    top, bottom = canonical_pair(D)
    assert top == bottom == (1, 1, 1)


def test_canonical_pair_worked_example():
    D = ((2, 0, 0), (1, 0, 2), (0, 0, 0))
    top, bottom = canonical_pair(D)
    assert top == (1, 1, 2, 2, 2)
    assert bottom == (1, 1, 1, 3, 3)


def test_canonical_pair_sorted_columns():
    for D in enumerate_basis(2, 4):
        top, bottom = canonical_pair(D)
        cols = list(zip(top, bottom))
        assert cols == sorted(cols)


def test_round_trip_everywhere_small():
    for n in range(1, 4):
        for d in range(4):
            for D in enumerate_basis(n, d):
                top, bottom = canonical_pair(D)
                assert matrix_from_pair(top, bottom, n) == D


# ------------------------------------------------------------ basis action

def test_apply_basis_diagonal_matching_content():
    D = ((2, 0), (0, 1))
    word = (1, 2, 1)
    assert apply_basis(D, word) == {word: 1}


def test_apply_basis_diagonal_content_mismatch():
    D = ((2, 0), (0, 1))
    assert apply_basis(D, (2, 2, 1)) == {}


def test_apply_basis_worked_small_case():
    D = ((0, 2), (0, 0))
    got = apply_basis(D, (2, 2))
    assert got == brute_apply(D, (2, 2), 2) == {(1, 1): 1}


def test_apply_basis_matches_brute_force():
    for (n, d) in [(2, 0), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)]:
        words = list(itertools.product(range(1, n + 1), repeat=d))
        for D in enumerate_basis(n, d):
            for word in words:
                assert apply_basis(D, word) == brute_apply(D, word, n)


def test_apply_basis_content_compatibility():
    n, d = 2, 3
    for D in enumerate_basis(n, d):
        for word in itertools.product(range(1, n + 1), repeat=d):
            image = apply_basis(D, word)
            if image:
                assert col_sums(D) == content(word, n)
                for out in image:
                    assert content(out, n) == row_sums(D)


def test_apply_basis_equivariance():
    # apply(D, w.word) = w.(apply(D, word)), positions permuted on both sides
    for (n, d) in [(2, 3), (3, 2), (2, 4)]:
        words = list(itertools.product(range(1, n + 1), repeat=d))
        perms = list(itertools.permutations(range(1, d + 1)))
        for D in enumerate_basis(n, d):
            for word in words:
                base = apply_basis(D, word)
                for w in perms:
                    moved = apply_basis(D, permute_positions(w, word))
                    expected = {permute_positions(w, i): 1 for i in base}
                    assert moved == expected


# -------------------------------------------------------- element algebra

def test_element_add_zero():
    x = basis_element(((1, 0), (0, 1)))
    assert x + SchurElement.zero(2, 2) == x


def test_element_cancels():
    x = basis_element(((1, 1), (0, 0)))
    assert (x + x.scale(-1)).is_zero()
    assert x - x == SchurElement.zero(2, 2)


def test_element_scaling_matches_addition():
    x = basis_element(((2, 0), (0, 0)))
    assert x.scale(2) == x + x == 2 * x


def test_element_arithmetic_does_not_revalidate(monkeypatch):
    # the keys of two validated elements of one ambient need no new check
    A, B, C = ((2, 0), (0, 0)), ((1, 1), (0, 0)), ((0, 0), (1, 1))
    x = SchurElement(2, 2, {A: Fraction(1, 2), B: -3})
    y = SchurElement(2, 2, {B: 3, C: Fraction(2, 3)})

    def refuse(entries):
        raise RuntimeError("key re-validated")

    monkeypatch.setattr("schuralg.basis.check_matrix", refuse)
    assert (x + y).terms == {A: Fraction(1, 2), C: Fraction(2, 3)}
    assert (-x).terms == {A: Fraction(-1, 2), B: 3}
    assert (x - y).terms == {A: Fraction(1, 2), B: -6, C: Fraction(-2, 3)}
    assert x.scale(0).terms == {}
    assert x.scale(Fraction(1, 3)).terms == {A: Fraction(1, 6), B: -1}
    assert (x + (-x)).terms == {}
    for refused in (2.0, True):
        with pytest.raises(TypeError):
            x.scale(refused)


def test_element_drops_zero_coefficients():
    x = SchurElement(2, 2, {((2, 0), (0, 0)): 0, ((0, 2), (0, 0)): Fraction(1, 2)})
    assert x.support() == (((0, 2), (0, 0)),)


def test_element_ambient_mismatch():
    x = basis_element(((1, 0), (0, 1)))
    y = basis_element(((3,),))
    with pytest.raises(ValueError):
        _ = x + y
    with pytest.raises(ValueError):
        SchurElement(2, 3, {((1, 0), (0, 1)): 1})


def test_element_rejects_float():
    with pytest.raises(TypeError):
        SchurElement(2, 2, {((2, 0), (0, 0)): 0.5})


def test_element_rejects_bool_scalars():
    x = basis_element(((2, 0), (0, 0)))
    for refused in (
        lambda: x.scale(True),
        lambda: x * True,
        lambda: False * x,
        lambda: SchurElement(2, 2, {((2, 0), (0, 0)): True}),
    ):
        with pytest.raises(TypeError):
            refused()


@pytest.mark.parametrize(
    "entries",
    [
        ((1.5, 0), (0, 0.5)),
        ((2.0, 0), (0, 0)),
        ((True, 0), (0, True)),
        ((Fraction(2), 0), (0, 0)),
        (("2", 0), (0, 0)),
    ],
    ids=["float", "integral-float", "bool", "fraction", "str"],
)
def test_basis_element_rejects_non_int_entries(entries):
    with pytest.raises(ValueError):
        basis_element(entries)


@pytest.mark.parametrize(
    "call",
    [
        lambda: SchurElement(2.5, 2),
        lambda: SchurElement(True, 2),
        lambda: SchurElement.zero(2, 1.0),
        lambda: basis_count(0, 2),
        lambda: centre_dimension(0, 2),
        lambda: centre_basis_element((2,), 0, 2),
        lambda: primitive_idempotent((2,), 0, 2),
        lambda: centre_dimension(True, 2),
        lambda: identity_element(2, 2.0),
        lambda: permutations_by_type(-1),
        lambda: partitions_of(True),
        lambda: (meeting_index(1, 1), meeting_index(True, 1)),
    ],
    ids=["element-float-n", "element-bool-n", "zero-float-d", "basis-count-n0",
         "centre-dimension-n0", "centre-basis-element-n0", "primitive-idempotent-n0",
         "centre-dimension-bool-n", "identity-float-d", "permutations-by-type-d-1",
         "partitions-of-bool", "meeting-index-bool-n-after-a-warm-call"],
)
def test_size_rule_refuses_bad_sizes(call):
    """Every public (n, d) entry point applies the one size rule: n and d are
    ints, not bools or floats, with n >= 1 and d >= 0."""
    with pytest.raises(ValueError):
        call()


# --------------------------------------------------------------- identity

def test_identity_element_support_two_four():
    expected = {
        ((4, 0), (0, 0)), ((3, 0), (0, 1)), ((2, 0), (0, 2)),
        ((1, 0), (0, 3)), ((0, 0), (0, 4)),
    }
    e = identity_element(2, 4)
    assert set(e.support()) == expected
    assert all(e.coefficient(D) == 1 for D in expected)


def test_identity_element_single_letter():
    assert identity_element(1, 3) == basis_element(((3,),))


def test_identity_is_diagonal_sum():
    e = identity_element(3, 2)
    assert all(is_diagonal(D) for D in e.support())


def test_identity_neutral_everywhere_small():
    e = identity_element(2, 3)
    for D in enumerate_basis(2, 3):
        x = basis_element(D)
        assert multiply(e, x) == x
        assert multiply(x, e) == x


@pytest.mark.parametrize("bound", [0, 1, 2, 7])
def test_kronecker_sum_weights_part_k_by_the_base_to_the_k(bound):
    # base B = 2 bound + 1; index q is in two parts and cancels to zero, so
    # it is dropped, and the empty part still takes its power
    n, d = 2, 2
    p, q, r = enumerate_basis(n, d)[:3]
    B = 2 * bound + 1
    x = kronecker_sum([{p: 3, q: B}, {q: -1, r: 2}, {}, {p: 1}], bound, n, d)
    assert x == SchurElement(n, d, {p: 3 + B**3, r: 2 * B})
    assert q not in x.terms


@pytest.mark.parametrize("bound", [1, 2, 5, 40])
def test_kronecker_sum_refuses_digits_that_cancel_in_base_bound(bound):
    # the law e x = 0 takes the parts to digits +bound at B^0 and -1 at B^1,
    # within the bound; in base ``bound`` they would cancel and pass it
    n, d = 2, 2
    D = enumerate_basis(n, d)[0]
    x = kronecker_sum([{D: bound}, {D: -1}], bound, n, d)
    assert not multiply(identity_element(n, d), x).is_zero()
