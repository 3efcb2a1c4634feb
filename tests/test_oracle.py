import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import schuralg
from schuralg import oracle
from schuralg.basis import (
    SchurElement,
    basis_element,
    col_sums,
    enumerate_basis,
    identity_element,
    matrix_from_pair,
    row_sums,
    weight_block,
)
from schuralg.multiplication import _basis_product, compositions, multiply
from schuralg.oracle import (
    TensorDimensionError,
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
    for (n, d) in [(1, 0), (2, 0), (1, 3), (2, 2), (2, 3), (3, 2)]:
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
    assert all(type(c) is Fraction for c in got.terms.values())


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
        product = multiply_via_oracle(x, y)
        assert product == multiply(x, y)
        assert all(type(c) is Fraction for c in product.terms.values())


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
        weights = list(compositions(d, (d,) * n))
        blocks = [
            block for rows in weights for cols in weights if (block := weight_block(rows, cols))
        ]
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


@pytest.mark.parametrize("n, d", [(2, 3), (3, 3)])
def test_oracle_contracts_whole_weight_blocks(n, d):
    # each factor holds a whole weight block with distinct rational
    # coefficients, so each middle word's weight reads several indices on
    # both sides
    weights = list(compositions(d, (d,) * n))
    blocks = {
        (rows, cols): [D for D, _, _ in weight_block(rows, cols)]
        for rows in weights for cols in weights
    }
    pairs = 0
    for (a, b), xs in blocks.items():
        for c in weights:
            ys = blocks[c, a]
            if len(xs) < 2 or len(ys) < 2:
                continue
            x = SchurElement(n, d, {D: Fraction(k + 1, 3) for k, D in enumerate(xs)})
            y = SchurElement(n, d, {D: Fraction(2 * k - 1, 5) for k, D in enumerate(ys)})
            product = multiply_via_oracle(x, y)
            assert product == multiply(x, y)
            if n == 2:
                composite = dense_operator(y) @ dense_operator(x)
                assert np.array_equal(dense_operator(product), composite)
            pairs += 1
    assert pairs > 0


def test_batch_mismatch_search_clean():
    for (n, d) in [(2, 2), (3, 2), (2, 3)]:
        assert find_product_mismatch(n, d) is None


@pytest.mark.parametrize("n, d", [(3, 3), (2, 6)])
def test_mismatch_search_leaves_the_product_cache_empty(n, d):
    # every ordered pair is checked against the uncached product core
    _basis_product.cache_clear()
    assert find_product_mismatch(n, d) is None
    assert _basis_product.cache_info().currsize == 0


@pytest.mark.parametrize("n, d", [(2, 3), (3, 2), (1, 4), (8, 1)])
def test_pair_positions_are_basis_positions(n, d):
    # the all-pairs check's entry primitive agrees with the basis order on
    # every word pair, in the letter dtype the oracle builds and in int64
    B = enumerate_basis(n, d)
    words = list(itertools.product(range(1, n + 1), repeat=d))
    expected = [[B.index(matrix_from_pair(t, b, n)) for b in words] for t in words]
    for dtype in (np.min_scalar_type(n * n), np.int64):
        letters = np.array(words, dtype).reshape(len(words), d)
        got = oracle._pair_positions(letters[:, None], letters, n)
        assert got.tolist() == expected


def test_one_product_routes_read_the_definition(monkeypatch):
    # only the all-pairs check uses the rank kernel; one product and one
    # operator read coefficients at pair matrices of words
    def refuse(*args):
        raise RuntimeError("rank kernel outside the all-pairs check")

    for name in ("_pair_positions", "_canonical_words", "_letters"):
        monkeypatch.setattr(oracle, name, refuse)
    left = basis_element(((2, 0, 0), (1, 0, 2), (0, 0, 0)))
    right = basis_element(((1, 0, 0), (1, 1, 0), (0, 2, 0)))
    assert multiply_via_oracle(left, right) == multiply(left, right)
    x = SchurElement(2, 3, {((2, 1), (0, 0)): Fraction(-3, 2), ((1, 0), (1, 1)): 2,
                            ((0, 0), (1, 2)): Fraction(1, 3)})
    y = SchurElement(2, 3, {((2, 0), (1, 0)): Fraction(5, 4), ((1, 1), (0, 1)): -1,
                            ((1, 0), (0, 2)): 3})
    assert not multiply(x, y).is_zero()
    assert multiply_via_oracle(x, y) == multiply(x, y)
    for D in enumerate_basis(2, 2):
        assert np.array_equal(dense_operator(basis_element(D)), brute_operator(D, 2, 2))


def test_oracle_does_not_revalidate(monkeypatch):
    # the compared indices come from enumerate_basis, so no index is checked
    # again and no word's content is recounted
    def refuse(*args):
        raise RuntimeError("validation inside the oracle")

    enumerate_basis(2, 3)
    monkeypatch.setattr("schuralg.basis.check_matrix", refuse)
    monkeypatch.setattr("schuralg.basis.content", refuse)
    assert find_product_mismatch(2, 3) is None


@pytest.mark.parametrize("n, d", [(8, 1), (9, 1)])
def test_oracle_exact_where_packed_codes_overflow(n, d):
    # the product core's base-(d + 1) codes of n^2 digits exceed 64 bits
    # here; the oracle's positions stay below |M(n,d)|
    assert (d + 1) ** (n * n) > 2**63
    B = enumerate_basis(n, d)
    assert find_product_mismatch(n, d) is None
    rng = random.Random(n)
    for _ in range(5):
        x, y = (
            SchurElement(n, d, {D: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                for D in rng.sample(B, 12)})
            for _ in range(2)
        )
        assert multiply_via_oracle(x, y) == multiply(x, y)
    for D in rng.sample(B, 8):
        assert np.array_equal(dense_operator(basis_element(D)), brute_operator(D, n, d))
    zero = SchurElement.zero(n, d)
    assert multiply_via_oracle(zero, x) == zero == multiply_via_oracle(x, zero)
    assert not dense_operator(zero).any()


def _patch_one_product(monkeypatch, pair, rewrite):
    real = oracle._uncached_product

    def patched(Dx, Dy):
        product = real(Dx, Dy)
        return rewrite(product) if (Dx, Dy) == pair else product

    monkeypatch.setattr(oracle, "_uncached_product", patched)


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


@pytest.mark.parametrize("rewrite", [
    lambda product: (*product, (((4, 0), (0, 0)), 1)),  # entry sum d + 1
    lambda product: (*product, (((1, 1, 0), (0, 0, 0), (0, 0, 1)), 1)),  # 3 x 3
    lambda product: tuple(sorted((*product, (((0, 0), (0, 3)), 0)))),  # zero coefficient
    lambda product: (*product, product[-1]),  # repeated index
    lambda product: product[::-1],  # unsorted expansion
], ids=["entry-sum", "three-by-three", "zero-coefficient", "repeated-index", "unsorted"])
def test_mismatch_found_on_a_malformed_expansion(monkeypatch, rewrite):
    # the faulty expansion holds every right term, in order, except where
    # the rewrite reorders them, so only the malformed part can fail it
    n, d = 2, 3
    Dx, Dy = ((0, 1), (1, 1)), ((0, 1), (1, 1))
    product = oracle._uncached_product(Dx, Dy)
    assert len(product) == 2 and ((0, 0), (0, 3)) not in dict(product)
    _patch_one_product(monkeypatch, (Dx, Dy), rewrite)
    assert find_product_mismatch(n, d) == (Dx, Dy)


def test_mismatch_found_on_meeting_pair_outside_the_first_key(monkeypatch):
    n, d = 3, 3
    first = enumerate_basis(n, d)[0]
    Dx, Dy = ((3, 0, 0), (0, 0, 0), (0, 0, 0)), ((1, 0, 0), (1, 0, 0), (1, 0, 0))
    assert (row_sums(Dx), col_sums(Dx)) != (row_sums(first), col_sums(first))
    assert row_sums(Dx) == col_sums(Dy)
    _patch_one_product(
        monkeypatch, (Dx, Dy), lambda product: ((product[0][0], product[0][1] + 1), *product[1:])
    )
    assert find_product_mismatch(n, d) == (Dx, Dy)


def test_mismatch_found_on_a_lost_expansion(monkeypatch):
    # the core loses every term of one pair, so where the two sides first
    # differ the oracle's term names that pair and the core's a later one
    # (or none, if the pair is the last of its row to have terms)
    B = enumerate_basis(2, 2)
    for pair in itertools.product(B, repeat=2):
        if oracle._uncached_product(*pair):
            with monkeypatch.context() as patch:
                _patch_one_product(patch, pair, lambda product: ())
                assert find_product_mismatch(2, 2) == pair


@pytest.mark.parametrize("n, d", [(2, 2), (2, 3)])
def test_every_ordered_pair_is_compared(monkeypatch, n, d):
    # a fault injected on any one ordered pair, whether the keys meet or
    # not, is reported at that pair
    B = enumerate_basis(n, d)
    real = oracle._uncached_product
    for pair in itertools.product(B, repeat=2):

        def patched(Dx, Dy, pair=pair):
            product = real(Dx, Dy)
            if (Dx, Dy) != pair:
                return product
            if not product:
                return ((Dx, 1),)
            return ((product[0][0], product[0][1] + 1), *product[1:])

        monkeypatch.setattr(oracle, "_uncached_product", patched)
        assert find_product_mismatch(n, d) == pair


def test_mismatch_search_reports_the_earlier_left_index(monkeypatch):
    # two injected faults: the pair whose left index comes first in basis order is reported
    n, d = 2, 3
    early = (((0, 0), (0, 3)), ((0, 0), (0, 3)))  # the first basis key
    late = (((3, 0), (0, 0)), ((3, 0), (0, 0)))
    real = oracle._uncached_product

    def patched(Dx, Dy):
        product = real(Dx, Dy)
        if (Dx, Dy) in (early, late):
            return ((product[0][0], product[0][1] + 1),)
        return product

    monkeypatch.setattr(oracle, "_uncached_product", patched)
    assert find_product_mismatch(n, d) == early


@pytest.mark.parametrize("key_first, basis_first", [
    # the same left index; the right keys come in the other order
    ((((0, 1), (0, 2)), ((1, 0), (0, 2))), (((0, 1), (0, 2)), ((0, 2), (1, 0)))),
    # the left keys come in the other order
    ((((1, 0), (0, 2)), ((0, 0), (1, 2))), (((0, 1), (2, 0)), ((0, 0), (1, 2)))),
    # and so do the middle contents the scan visits the left indices by
    ((((1, 0), (0, 2)), ((0, 1), (1, 1))), (((0, 2), (0, 1)), ((1, 1), (1, 0)))),
])
def test_mismatch_search_follows_basis_order(monkeypatch, key_first, basis_first):
    # two faults where the order of the weight keys (row sums, column sums)
    # and basis order disagree: the pair that comes first in basis order is
    # reported
    B = enumerate_basis(2, 3)
    assert sorted((key_first, basis_first), key=lambda p: (B.index(p[0]), B.index(p[1])))[0] \
        == basis_first
    real = oracle._uncached_product

    def patched(Dx, Dy):
        product = real(Dx, Dy)
        if (Dx, Dy) in (key_first, basis_first):
            return ((product[0][0], product[0][1] + 1), *product[1:])
        return product

    monkeypatch.setattr(oracle, "_uncached_product", patched)
    assert find_product_mismatch(2, 3) == basis_first


def test_import_leaves_numpy_unloaded():
    # numpy is imported inside the oracle functions that use it, so a CLI
    # command that never reaches the oracle, or one oracle product, does
    # not load it
    src = str(Path(schuralg.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    for code in (
        "import sys, schuralg; sys.exit('numpy' in sys.modules)",
        "import sys, schuralg.cli as c; c.main(['dim', '--n', '2', '--d', '3']);"
        " sys.exit('numpy' in sys.modules)",
        "import sys, schuralg as s; x = s.basis_element(((1, 1), (1, 1)));"
        " s.multiply_via_oracle(x, x); sys.exit('numpy' in sys.modules)",
    ):
        assert subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True).returncode == 0


def test_guard_rejects_large_word_space():
    x = basis_element(tuple(tuple(5 if (a, b) == (0, 0) else 0 for b in range(10)) for a in range(10)))
    with pytest.raises(TensorDimensionError):
        multiply_via_oracle(x, x)  # 10^5 words > default guard


def test_guard_override(monkeypatch):
    # the guard is read at call time, so lowering the constant tightens it
    x = basis_element(((2, 0), (0, 0)))
    monkeypatch.setattr(oracle, "DEFAULT_MAX_TENSOR_DIM", 3)
    with pytest.raises(TensorDimensionError):
        dense_operator(x)
    monkeypatch.setattr(oracle, "DEFAULT_MAX_TENSOR_DIM", 4)
    assert find_product_mismatch(2, 2) is None
    with pytest.raises(TensorDimensionError):
        find_product_mismatch(2, 3)

