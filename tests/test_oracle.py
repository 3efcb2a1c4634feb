import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from schuralg import oracle
from schuralg.basis import (
    SchurElement,
    basis_element,
    col_sums,
    enumerate_basis,
    identity_element,
    matrix_from_pair,
    row_sums,
    weight_blocks,
)
from schuralg.multiplication import multiply
from schuralg.oracle import (
    TensorDimensionError,
    all_words,
    dense_operator,
    find_product_mismatch,
    multiply_via_oracle,
)


def brute_operator(D, n, d):
    """Independent realization: scan all word pairs and filter by pair matrix."""
    words = list(itertools.product(range(1, n + 1), repeat=d))
    pos = {w: k for k, w in enumerate(words)}
    M = np.zeros((len(words), len(words)), dtype=object)
    for cj, wj in enumerate(words):
        for wi in words:
            if matrix_from_pair(wi, wj, n) == D:
                M[pos[wi], cj] = 1
    return M


def test_dense_operator_matches_brute_force():
    for (n, d) in [(2, 2), (2, 3), (3, 2)]:
        for D in enumerate_basis(n, d):
            got = dense_operator(basis_element(D))
            assert np.array_equal(got, brute_operator(D, n, d))


def test_dense_operator_linear():
    n, d = 2, 2
    D1, D2 = ((2, 0), (0, 0)), ((0, 1), (1, 0))
    x = SchurElement(n, d, {D1: Fraction(1, 2), D2: -3})
    expected = (
        brute_operator(D1, n, d) * Fraction(1, 2) + brute_operator(D2, n, d) * -3
    )
    assert np.array_equal(dense_operator(x), expected)


def test_oracle_worked_pair():
    left = basis_element(((2, 0, 0), (1, 0, 2), (0, 0, 0)))
    right = basis_element(((1, 0, 0), (1, 1, 0), (0, 2, 0)))
    got = multiply_via_oracle(left, right)
    assert got == SchurElement(
        3,
        5,
        {((1, 0, 0), (2, 0, 0), (0, 0, 2)): 2, ((1, 0, 0), (1, 0, 1), (1, 0, 1)): 1},
    )


def test_oracle_identity_composition():
    e = identity_element(2, 3)
    assert multiply_via_oracle(e, e) == e


def test_oracle_agrees_with_multiply_exhaustive():
    # every ordered basis pair, two sizes, via the public per-pair route
    for (n, d) in [(2, 2), (2, 3)]:
        B = enumerate_basis(n, d)
        for Dx in B:
            for Dy in B:
                x, y = basis_element(Dx), basis_element(Dy)
                assert multiply_via_oracle(x, y) == multiply(x, y)


def test_oracle_agrees_on_rational_combinations():
    rng = random.Random(9)
    n, d = 2, 3
    B = enumerate_basis(n, d)
    for _ in range(10):
        x = SchurElement(n, d, {D: Fraction(rng.randint(-3, 3), 2) for D in rng.sample(B, 3)})
        y = SchurElement(n, d, {D: rng.randint(-2, 2) for D in rng.sample(B, 3)})
        assert multiply_via_oracle(x, y) == multiply(x, y)


def test_composite_operator_fully_explained():
    # the composed matrix equals the expansion rebuilt from basis operators,
    # entry for entry, not just at the sampled canonical positions
    n, d = 2, 2
    for Dx in enumerate_basis(n, d):
        for Dy in enumerate_basis(n, d):
            x, y = basis_element(Dx), basis_element(Dy)
            composite = dense_operator(y) @ dense_operator(x)
            rebuilt = dense_operator(multiply(x, y))
            assert np.array_equal(composite, rebuilt)
    # the block route against full-space composition, on sparse rational
    # elements whose terms span at least two weight blocks
    rng = random.Random(31)
    for (n, d) in [(2, 3), (3, 2)]:
        blocks = list(weight_blocks(n, d).values())
        for _ in range(5):
            x, y = (
                SchurElement(n, d, {
                    rng.choice(block)[0]: Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))
                    for block in rng.sample(blocks, 3)
                })
                for _ in range(2)
            )
            composite = dense_operator(y) @ dense_operator(x)
            assert np.array_equal(composite, dense_operator(multiply_via_oracle(x, y)))


def test_batch_mismatch_search_clean():
    for (n, d) in [(2, 2), (3, 2), (2, 3)]:
        assert find_product_mismatch(n, d) is None


def test_image_outside_weight_space_raises(monkeypatch):
    real = oracle.apply_basis

    def leaky(D, word):
        return {**real(D, word), (1,) * len(word): 1}

    monkeypatch.setattr(oracle, "apply_basis", leaky)
    D = ((0, 1), (1, 1))  # row sums (1, 2): the word (1, 1, 1) is outside
    with pytest.raises(KeyError):
        dense_operator(basis_element(D))
    with pytest.raises(KeyError):
        find_product_mismatch(2, 3)


def _patch_one_product(monkeypatch, pair, rewrite):
    real = oracle._basis_product

    def patched(Dx, Dy):
        product = real(Dx, Dy)
        return rewrite(product) if (Dx, Dy) == pair else product

    monkeypatch.setattr(oracle, "_basis_product", patched)


def test_mismatch_found_on_pair_whose_weights_do_not_meet(monkeypatch):
    Dx, Dy = ((2, 0), (0, 0)), ((0, 0), (0, 2))
    assert row_sums(Dx) != col_sums(Dy)
    _patch_one_product(monkeypatch, (Dx, Dy), lambda product: ((((0, 0), (2, 0)), 1),))
    assert find_product_mismatch(2, 2) == (Dx, Dy)


def test_mismatch_found_on_wrong_coefficient(monkeypatch):
    Dx, Dy = ((1, 1), (0, 0)), ((2, 0), (0, 0))
    assert row_sums(Dx) == col_sums(Dy)
    _patch_one_product(
        monkeypatch, (Dx, Dy), lambda product: ((product[0][0], product[0][1] + 1), *product[1:])
    )
    assert find_product_mismatch(2, 2) == (Dx, Dy)


def test_guard_rejects_large_word_space():
    x = basis_element(tuple(tuple(5 if (a, b) == (0, 0) else 0 for b in range(10)) for a in range(10)))
    with pytest.raises(TensorDimensionError):
        multiply_via_oracle(x, x)  # 10^5 words > default guard


def test_guard_override():
    x = basis_element(((2, 0), (0, 0)))
    with pytest.raises(TensorDimensionError):
        dense_operator(x, max_dim=3)
    assert find_product_mismatch(2, 2, max_dim=4) is None
    with pytest.raises(TensorDimensionError):
        find_product_mismatch(2, 3, max_dim=4)


def test_all_words_lexicographic():
    words = all_words(2, 2)
    assert words == ((1, 1), (1, 2), (2, 1), (2, 2))
