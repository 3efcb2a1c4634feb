"""The checks of ``verify``: the once-per-pair product checks leave the
product cache empty and expand each meeting pair once, the product checks
hand only meeting pairs to the core and to ``multiply``, distinct and in
basis order, and every check fails, and names the input, when a fault is
injected into the route it reads at one input."""

import itertools
import random

import pytest
from test_multiplication import _unweighted_product

from schuralg import multiplication, verification
from schuralg.basis import (
    SchurElement,
    col_sums,
    enumerate_basis,
    identity_element,
    row_sums,
)
from schuralg.multiplication import _basis_product
from schuralg.verification import (
    FAIL,
    PASS,
    SAMPLE_SEED,
    SAMPLED_PAIRS,
    CheckResult,
    check_action_convention,
    check_associativity,
    check_characters,
    check_content_margins,
    check_identity_neutral,
    check_idempotents,
    check_structure_constants,
    run_suite,
)

PRODUCT_CHECKS = [check_structure_constants, check_content_margins, check_associativity]

ONCE_PER_PAIR = [check_content_margins, check_structure_constants]


@pytest.mark.parametrize("check", ONCE_PER_PAIR)
@pytest.mark.parametrize("n, d", [(3, 3), (2, 6)])
def test_once_per_pair_checks_leave_the_product_cache_empty(check, n, d):
    _basis_product.cache_clear()
    assert check(n, d).status == PASS
    assert _basis_product.cache_info().currsize == 0


def _meets(Dx, Dy):
    return row_sums(Dx) == col_sums(Dy)


def test_exhaustive_structure_check_expands_each_pair_once(monkeypatch):
    B = enumerate_basis(2, 3)
    real = verification._uncached_product
    calls = []

    def counted(Dx, Dy):
        calls.append((Dx, Dy))
        return real(Dx, Dy)

    monkeypatch.setattr(verification, "_uncached_product", counted)
    result = check_structure_constants(2, 3)
    meeting = [pair for pair in itertools.product(B, repeat=2) if _meets(*pair)]
    triples = sum(
        col_sums(Dt) == col_sums(Dx) and row_sums(Dt) == row_sums(Dy)
        for Dx, Dy in meeting for Dt in B
    )
    nonzero = sum(len(real(*pair)) for pair in meeting)
    assert result.status == PASS and result.detail == (
        f"all {len(meeting)} meeting pairs, {triples} triples, {nonzero} nonzero"
    )
    assert calls == meeting


@pytest.mark.parametrize("n, d", [(2, 3), (3, 3), (2, 6)])
def test_product_checks_hand_only_meeting_pairs_to_the_core(monkeypatch, n, d):
    real_core, real_multiply = verification._uncached_product, verification.multiply
    pairs = []

    def core(Dx, Dy):
        pairs.append((Dx, Dy))
        return real_core(Dx, Dy)

    def recorded(x, y):
        pairs.extend(itertools.product(x.terms, y.terms))
        return real_multiply(x, y)

    monkeypatch.setattr(verification, "_uncached_product", core)
    monkeypatch.setattr(verification, "multiply", recorded)
    assert all(check(n, d).status == PASS for check in PRODUCT_CHECKS)
    assert pairs and all(_meets(*pair) for pair in pairs)


@pytest.mark.parametrize("check", PRODUCT_CHECKS)
@pytest.mark.parametrize("n, d", [(3, 3), (3, 4)])
def test_product_checks_scan_distinct_pairs_in_basis_order(monkeypatch, check, n, d):
    # the pairs a check hands to the core, or the (x, y) of each chained
    # triple, which associativity multiplies first of its four products
    real_core, real_multiply = verification._uncached_product, verification.multiply
    pairs, calls = [], []

    def core(Dx, Dy):
        pairs.append((Dx, Dy))
        return real_core(Dx, Dy)

    def recorded(x, y):
        calls.append((*x.terms, *y.terms))
        return real_multiply(x, y)

    monkeypatch.setattr(verification, "_uncached_product", core)
    monkeypatch.setattr(verification, "multiply", recorded)
    assert check(n, d).status == PASS
    position = {D: k for k, D in enumerate(enumerate_basis(n, d))}
    keys = [(position[Dx], position[Dy]) for Dx, Dy in pairs or calls[::4]]
    assert keys and all(a < b for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize("n, d", [(3, 3), (2, 6), (3, 4)])
def test_sampled_structure_check_fails_when_every_coefficient_is_off(monkeypatch, n, d):
    # uniform draws from B^3 meet no nonzero coefficient at (3,3) and (3,4)
    real = verification._uncached_product
    monkeypatch.setattr(
        verification,
        "_uncached_product",
        lambda Dx, Dy: tuple((P, c + 1) for P, c in real(Dx, Dy)),
    )
    assert check_structure_constants(n, d).status == FAIL


def _meeting_pairs_with_terms(B, count):
    """``count`` meeting pairs spread over the basis order, each with at
    least two output terms."""
    pairs = [
        (Dx, Dy) for Dx, Dy in itertools.product(B, repeat=2)
        if len(verification._uncached_product(Dx, Dy)) > 1
    ]
    return [pairs[k * (len(pairs) - 1) // (count - 1)] for k in range(count)]


@pytest.mark.parametrize("which", range(3))
def test_structure_check_names_the_first_wrong_coefficient(monkeypatch, which):
    # the first and last coefficients of one meeting pair are off by one;
    # the check names the faulty triple that itertools.product(B, repeat=3)
    # reaches first
    B = enumerate_basis(2, 3)
    pair = _meeting_pairs_with_terms(B, 3)[which]
    real = verification._uncached_product
    expansion = real(*pair)
    faulty = {expansion[0][0], expansion[-1][0]}

    def patched(Dx, Dy):
        product = real(Dx, Dy)
        if (Dx, Dy) != pair:
            return product
        return tuple((P, c + (P in faulty)) for P, c in product)

    monkeypatch.setattr(verification, "_uncached_product", patched)
    first = next(t for t in itertools.product(B, repeat=3) if t[:2] == pair and t[2] in faulty)
    assert check_structure_constants(2, 3) == verification.CheckResult(
        "structure-constants", FAIL, f"triple {first}"
    )


def test_structure_check_names_the_earlier_faulty_pair(monkeypatch):
    B = enumerate_basis(2, 3)
    early, late = _meeting_pairs_with_terms(B, 2)
    real = verification._uncached_product

    def patched(Dx, Dy):
        product = real(Dx, Dy)
        if (Dx, Dy) in (early, late):
            return ((product[0][0], product[0][1] + 1), *product[1:])
        return product

    monkeypatch.setattr(verification, "_uncached_product", patched)
    result = check_structure_constants(2, 3)
    assert result.status == FAIL
    assert result.detail == f"triple {(*early, real(*early)[0][0])}"


def _plus_wrong_row_sums(pair, product):
    """The product and one more index, with the left factor's column sums
    but not the right factor's row sums."""
    Dx, Dy = pair
    B = enumerate_basis(len(Dx), sum(map(sum, Dx)))
    bad = next(P for P in B if col_sums(P) == col_sums(Dx) and row_sums(P) != row_sums(Dy))
    return (*product, (bad, 1))


def _transposed(pair, product):
    """Every output index transposed, which swaps its margins."""
    return tuple((tuple(zip(*P)), c) for P, c in product)


@pytest.mark.parametrize("n, d, pair, fault", [
    (2, 3, (((0, 0), (0, 3)), ((0, 1), (0, 2))), _plus_wrong_row_sums),
    # a meeting pair that 10000 uniform draws from B^2 miss
    (3, 3, (((0, 0, 0), (0, 0, 0), (0, 0, 3)), ((0, 0, 0), (0, 0, 1), (0, 0, 2))),
     _transposed),
], ids=["2-3-extra-index", "3-3-transposed"])
def test_margin_check_names_the_pair_with_wrong_margins(monkeypatch, n, d, pair, fault):
    Dx, Dy = pair
    assert _meets(Dx, Dy) and row_sums(Dx) != row_sums(Dy)
    real = verification._uncached_product
    bad = next(
        P for P, _ in fault(pair, real(*pair))
        if col_sums(P) != col_sums(Dx) or row_sums(P) != row_sums(Dy)
    )

    def patched(left, right):
        product = real(left, right)
        return fault(pair, product) if (left, right) == pair else product

    monkeypatch.setattr(verification, "_uncached_product", patched)
    assert check_content_margins(n, d) == verification.CheckResult(
        "content-margins", FAIL, f"pair {pair} -> {bad}"
    )


def test_identity_check_names_the_index_it_fails_at(monkeypatch):
    # the core loses the product of e's term with xi_D, first on the left
    # side of xi_D, then on the right
    n, d = 2, 3
    D, diagonal = enumerate_basis(n, d)[5], identity_element(n, d).terms
    real = multiplication._basis_product
    for lost in (
        next((E, D) for E in diagonal if _meets(E, D)),
        next((D, E) for E in diagonal if _meets(D, E)),
    ):
        monkeypatch.setattr(
            multiplication, "_basis_product",
            lambda Dx, Dy, lost=lost: () if (Dx, Dy) == lost else real(Dx, Dy),
        )
        assert check_identity_neutral(n, d) == CheckResult(
            "identity-neutral", FAIL, f"failed at {D}"
        )


def test_identity_check_sees_two_swapped_products(monkeypatch):
    # the core swaps e xi_a and e xi_b for a, b of equal column sums: the
    # plain sum of that column-sum group is unchanged by e, its weighted
    # sum is not
    n, d = 2, 3
    e = identity_element(n, d)
    group = [D for D in enumerate_basis(n, d) if col_sums(D) == (1, 2)]
    a, b = group[0], group[-1]
    (E,) = (E for E in e.terms if _meets(E, a))
    swap = {(E, a): (E, b), (E, b): (E, a)}
    real = multiplication._basis_product
    monkeypatch.setattr(
        multiplication, "_basis_product", lambda Dx, Dy: real(*swap.get((Dx, Dy), (Dx, Dy)))
    )
    plain = SchurElement(n, d, dict.fromkeys(group, 1))
    assert multiplication.multiply(e, plain) == plain
    assert check_identity_neutral(n, d) == CheckResult("identity-neutral", FAIL, f"failed at {a}")


def test_identity_check_takes_one_product_per_side_and_weight(monkeypatch):
    real, calls = verification.multiply, []

    def counted(x, y):
        calls.append((x, y))
        return real(x, y)

    monkeypatch.setattr(verification, "multiply", counted)
    for n, d in [(2, 3), (3, 3), (2, 6)]:
        calls.clear()
        assert check_identity_neutral(n, d).status == PASS
        assert len(calls) == 2 * len(identity_element(n, d).terms)


def test_identity_check_fails_when_only_a_weighted_sum_fails(monkeypatch):
    # a product that is not bilinear: zero when a coefficient exceeds 1, as
    # in the weighted sums, right on e and on every basis element
    n, d = 2, 3
    real = verification.multiply

    def patched(x, y):
        if any(c > 1 for z in (x, y) for c in z.terms.values()):
            return SchurElement.zero(n, d)
        return real(x, y)

    monkeypatch.setattr(verification, "multiply", patched)
    assert check_identity_neutral(n, d) == CheckResult(
        "identity-neutral", FAIL, "failed on a weighted sum of basis elements"
    )


def test_idempotent_check_fails_when_only_the_law_product_fails(monkeypatch):
    # a product that is not bilinear: zero when a coefficient exceeds 10^6,
    # as in the law product's weighted sums, right on every idempotent
    n, d = 2, 3
    real = verification.multiply

    def patched(x, y):
        if any(abs(c) > 10**6 for z in (x, y) for c in z.terms.values()):
            return SchurElement.zero(n, d)
        return real(x, y)

    monkeypatch.setattr(verification, "multiply", patched)
    assert check_idempotents(n, d) == CheckResult(
        "idempotents", FAIL, "failed on a weighted sum of idempotents"
    )


@pytest.mark.parametrize("n, d", [(1, 0), (2, 0), (3, 0), (1, 1), (1, 4), (4, 1)])
def test_suite_passes_at_the_edge_sizes(n, d):
    results = run_suite(n, d)
    assert all(r.status == PASS for r in results), results


def test_associativity_check_names_the_triple_it_fails_at(monkeypatch):
    # x * y is off by the identity in the first chained triple, so
    # (x * y) * z gains z and x * (y * z) does not
    n, d = 2, 3
    pairs, _ = verification._scope(n, d, SAMPLED_PAIRS, SAMPLED_PAIRS)
    Dx, Dy = pairs[0]
    Dz = random.Random(SAMPLE_SEED).choice([D for D in enumerate_basis(n, d) if _meets(Dy, D)])
    x, y, z = (SchurElement(n, d, {D: 1}) for D in (Dx, Dy, Dz))
    real = verification.multiply

    def patched(a, b):
        product = real(a, b)
        return product + identity_element(n, d) if (a, b) == (x, y) else product

    monkeypatch.setattr(verification, "multiply", patched)
    assert check_associativity(n, d) == CheckResult(
        "associativity", FAIL, f"{x!r}, {y!r}, {z!r}"
    )


@pytest.mark.parametrize("n, d", [(2, 3), (3, 3), (2, 6)])
def test_associativity_check_refuses_the_unweighted_rule(monkeypatch, n, d):
    # uniform basis triples almost never multiply to nonzero at (3,3) and (2,6)
    monkeypatch.setattr(
        verification,
        "multiply",
        lambda x, y: SchurElement(n, d, _unweighted_product(x.terms, y.terms)),
    )
    assert check_associativity(n, d).status == FAIL


def test_action_convention_check_names_the_index_it_fails_at(monkeypatch):
    n, d = 2, 3
    D = enumerate_basis(n, d)[7]
    real = verification.class_coefficient
    monkeypatch.setattr(
        verification, "class_coefficient", lambda shape, E: real(shape, E) + (E == D)
    )
    assert check_action_convention(n, d) == CheckResult(
        "action-convention", FAIL, f"stored count off at {D}"
    )


@pytest.mark.parametrize("shape, cls, detail", [
    ((2, 1, 1), (1, 1, 1, 1), "identity column off at (2, 1, 1)"),
    # the first sum the fault enters is that of (4,) with (2, 1, 1)
    ((2, 1, 1), (3, 1), "orthogonality off at (4,),(2, 1, 1)"),
])
def test_characters_check_names_the_shape_it_fails_at(monkeypatch, shape, cls, detail):
    real = verification.character
    monkeypatch.setattr(
        verification, "character", lambda a, mu: real(a, mu) + ((a, mu) == (shape, cls))
    )
    assert check_characters(4) == CheckResult("characters", FAIL, detail)
