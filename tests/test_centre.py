import itertools
import random
from fractions import Fraction
from math import factorial, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

import schuralg.basis
import schuralg.centre
import schuralg.cli
import schuralg.partitions
import schuralg.verification
from schuralg.basis import (
    SchurElement,
    basis_element,
    canonical_pair,
    col_sums,
    enumerate_basis,
    generator_indices,
    identity_element,
    matrix_from_pair,
    row_sums,
    weight_block,
)
from schuralg.centre import (
    _cycle_type_histogram,
    _joined_paths,
    _pair_count,
    centre_basis_element,
    centre_dimension,
    class_coefficient,
    commutes_with_generators,
    is_central,
    primitive_idempotent,
)
from schuralg.formats import canonical_json, element_to_json, format_element, format_partition
from schuralg.multiplication import compositions, multiply
from schuralg.partitions import (
    character,
    class_size,
    cycle_type,
    partitions_of,
    permutations_by_type,
    permute_positions,
    tableaux_count,
)
from schuralg.verification import (
    FAIL,
    PASS,
    check_action_convention,
    check_centrality,
    check_idempotents,
    check_row_sum_law,
    first_non_idempotent,
    first_non_orthogonal_pair,
    idempotent_law_failures,
    sums_to_identity,
)


def is_diagonal(entries) -> bool:
    return all(v == 0 for a, row in enumerate(entries) for b, v in enumerate(row) if a != b)


def _m(a, b, c, d):
    return ((a, b), (c, d))


# class-sum expansions at n=2, d=4, frozen coefficient for coefficient
EXPECTED_CLASS_SUMS = {
    (4,): {
        _m(4, 0, 0, 0): 6, _m(2, 1, 1, 0): 2, _m(1, 1, 1, 1): 1,
        _m(0, 2, 2, 0): 2, _m(0, 1, 1, 2): 2, _m(0, 0, 0, 4): 6,
    },
    (3, 1): {
        _m(4, 0, 0, 0): 8, _m(3, 0, 0, 1): 2, _m(2, 1, 1, 0): 2,
        _m(1, 1, 1, 1): 2, _m(1, 0, 0, 3): 2, _m(0, 1, 1, 2): 2,
        _m(0, 0, 0, 4): 8,
    },
    (2, 2): {
        _m(4, 0, 0, 0): 3, _m(2, 1, 1, 0): 1, _m(2, 0, 0, 2): 1,
        _m(0, 2, 2, 0): 2, _m(0, 1, 1, 2): 1, _m(0, 0, 0, 4): 3,
    },
    (2, 1, 1): {
        _m(4, 0, 0, 0): 6, _m(3, 0, 0, 1): 3, _m(2, 1, 1, 0): 1,
        _m(2, 0, 0, 2): 2, _m(1, 1, 1, 1): 1, _m(1, 0, 0, 3): 3,
        _m(0, 1, 1, 2): 1, _m(0, 0, 0, 4): 6,
    },
    (1, 1, 1, 1): {
        _m(4, 0, 0, 0): 1, _m(3, 0, 0, 1): 1, _m(2, 0, 0, 2): 1,
        _m(1, 0, 0, 3): 1, _m(0, 0, 0, 4): 1,
    },
}


def brute_class_coefficient(shape, D):
    """Independent count: raw scan of S_d against the canonical word pair."""
    from schuralg.basis import canonical_pair

    top, bottom = canonical_pair(D)
    d = sum(shape)
    return sum(
        1
        for w in itertools.permutations(range(1, d + 1))
        if cycle_type(w) == shape and permute_positions(w, bottom) == top
    )


# --------------------------------------------------------- coefficients

def test_class_coefficient_identity_type():
    for D in enumerate_basis(2, 3):
        expected = 1 if is_diagonal(D) else 0
        assert class_coefficient((1, 1, 1), D) == expected


def test_class_coefficient_worked_values():
    assert class_coefficient((4,), _m(2, 1, 1, 0)) == 2
    assert class_coefficient((2, 2), _m(2, 0, 0, 2)) == 1


def test_class_coefficient_obstruction():
    # unequal row and column sums force zero for every cycle type
    D = ((0, 2), (0, 0))
    for shape in partitions_of(2):
        assert class_coefficient(shape, D) == 0


def test_class_coefficient_weight_mismatch():
    with pytest.raises(ValueError):
        class_coefficient((2, 1), _m(2, 0, 0, 2))


def test_class_coefficient_matches_raw_scan():
    for shape in partitions_of(4):
        for D in enumerate_basis(2, 4):
            assert class_coefficient(shape, D) == brute_class_coefficient(shape, D)


@pytest.mark.parametrize("n, d", [(2, 6), (3, 5), (2, 8)])
def test_bijection_histogram_matches_full_scan(n, d):
    # for every index of the square block, the histogram over the
    # prod_a c_a! carriers agrees shape by shape with a scan of all of S_d
    by_type = permutations_by_type(d)
    for rows in compositions(d, (d,) * n):
        for _, top, bottom in weight_block(rows, rows):
            histogram = _cycle_type_histogram(top, bottom)
            for shape, ws in by_type.items():
                scanned = sum(1 for w in ws if permute_positions(w, bottom) == top)
                assert histogram.get(shape, 0) == scanned == _pair_count(shape, top, bottom)
            assert sum(histogram.values()) == prod(factorial(c) for c in rows)


def brute_histogram(top, bottom):
    """Independent count: list the prod_a c_a! carriers letter by letter.

    ``top`` is sorted, so a carrier in one-line notation is, letter by
    letter, an arrangement of the positions of that letter in ``bottom``."""
    if sorted(bottom) != list(top):
        return {}
    positions = {}
    for k, letter in enumerate(bottom, 1):
        positions.setdefault(letter, []).append(k)
    counts = {}
    for runs in itertools.product(
        *(itertools.permutations(positions[a]) for a in sorted(positions))
    ):
        shape = cycle_type(tuple(k for run in runs for k in run))
        counts[shape] = counts.get(shape, 0) + 1
    return counts


@pytest.mark.parametrize("n, d", [(3, 8), (4, 6), (5, 5)])
def test_joined_paths_histogram_matches_bijection_listing(n, d):
    # sizes where a scan of S_d per index is too slow, but listing the
    # carriers of each square-block index is not
    for rows in compositions(d, (d,) * n):
        for _, top, bottom in weight_block(rows, rows):
            assert _cycle_type_histogram(top, bottom) == brute_histogram(top, bottom)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.integers(1, n), max_size=7),
    st.permutations(range(1, n + 1)),
)))
def test_histogram_property(case):
    bottom, relabel = case
    n = len(relabel)
    top = tuple(sorted(bottom))
    D = matrix_from_pair(top, tuple(bottom), n)
    histogram = _cycle_type_histogram(*canonical_pair(D))
    assert histogram == brute_histogram(top, tuple(bottom))
    assert sum(histogram.values()) == prod(factorial(top.count(a)) for a in set(top))
    moved = matrix_from_pair(
        tuple(relabel[a - 1] for a in top), tuple(relabel[b - 1] for b in bottom), n
    )
    for image in (tuple(zip(*D)), moved):
        assert _cycle_type_histogram(*canonical_pair(image)) == histogram


def test_joined_paths_memo_is_bounded():
    assert _joined_paths.cache_info().maxsize is not None


def test_centre_does_not_scan_the_symmetric_group(monkeypatch):
    expected = (
        centre_dimension(2, 5),
        centre_basis_element((2, 1), 2, 3),
        primitive_idempotent((2, 1), 3, 3),
    )

    def refuse(d):
        raise AssertionError("the centre scanned S_d")

    monkeypatch.setattr(schuralg.partitions, "permutations_by_type", refuse)
    monkeypatch.setattr(schuralg.centre, "permutations_by_type", refuse, raising=False)
    _pair_count.cache_clear()
    _cycle_type_histogram.cache_clear()
    _joined_paths.cache_clear()
    assert expected[0] == 3
    assert (
        centre_dimension(2, 5),
        centre_basis_element((2, 1), 2, 3),
        primitive_idempotent((2, 1), 3, 3),
    ) == expected


def test_centre_paths_never_enumerate_the_basis(monkeypatch, capsys):
    # the centre, the idempotents and the identity read their weight blocks
    # only; the whole basis is enumerated by nothing on these paths
    argv = ["idempotents", "--n", "3", "--d", "4", "--output", "json"]
    assert schuralg.cli.main(argv) == 0
    expected = (
        centre_dimension(3, 5),
        centre_basis_element((2, 1), 2, 3),
        primitive_idempotent((2, 1), 3, 3),
        identity_element(3, 4),
        capsys.readouterr().out,
    )

    def refuse(n, d):
        raise AssertionError("the whole basis was enumerated")

    for module in (schuralg.basis, schuralg.centre, schuralg.cli):
        monkeypatch.setattr(module, "enumerate_basis", refuse)
    weight_block.cache_clear()
    assert expected[0] == 5
    assert schuralg.cli.main(argv) == 0
    assert (
        centre_dimension(3, 5),
        centre_basis_element((2, 1), 2, 3),
        primitive_idempotent((2, 1), 3, 3),
        identity_element(3, 4),
        capsys.readouterr().out,
    ) == expected


def test_row_sum_law_small():
    n, d = 2, 3
    words = list(itertools.product(range(1, n + 1), repeat=d))
    for shape in partitions_of(d):
        for bottom in words:
            total = sum(
                class_coefficient(shape, matrix_from_pair(top, bottom, n))
                for top in words
            )
            assert total == class_size(shape)


def test_row_sum_law_catches_a_wrong_coefficient(monkeypatch):
    # one bottom word per content is visited, and the failure is reported at
    # the word a scan of every word meets first; the histogram of the
    # canonical pair of ((1, 1), (0, 1)) gets one extra carrier of type (2, 1)
    def off_by_one(top, bottom):
        histogram = _cycle_type_histogram(top, bottom)
        if (top, bottom) != ((1, 1, 2), (1, 2, 2)):
            return histogram
        return {**histogram, (2, 1): histogram.get((2, 1), 0) + 1}

    assert canonical_pair(((1, 1), (0, 1))) == ((1, 1, 2), (1, 2, 2))
    monkeypatch.setattr("schuralg.verification._cycle_type_histogram", off_by_one)
    result = check_row_sum_law(2, 3)
    assert result.status == "fail"
    assert result.detail == "shape (2, 1), word (1, 2, 2): 5"


def test_action_convention_equivalence():
    for (n, d) in [(2, 4), (2, 5), (3, 3)]:
        assert check_action_convention(n, d).status == "pass"


# ----------------------------------------------------------- class sums

def test_class_sum_expansions_two_four():
    for shape, expected in EXPECTED_CLASS_SUMS.items():
        assert centre_basis_element(shape, 2, 4) == SchurElement(2, 4, expected)


def test_identity_type_class_sum_is_identity():
    assert centre_basis_element((1, 1, 1, 1), 2, 4) == identity_element(2, 4)


def test_class_sums_are_central():
    for (n, d) in [(2, 3), (3, 3)]:
        for shape in partitions_of(d):
            assert is_central(centre_basis_element(shape, n, d))


def test_class_sum_central_three_one():
    assert is_central(centre_basis_element((3, 1), 2, 4))


def test_is_central_identity():
    assert is_central(identity_element(2, 2))


def test_is_central_rejects_offdiagonal_basis_elements():
    for D in enumerate_basis(2, 2):
        if not is_diagonal(D):
            assert not is_central(basis_element(D))


@pytest.mark.parametrize("n, d", [(2, 3), (3, 3), (2, 4), (3, 4)])
def test_generator_route_agrees_with_full_basis(n, d):
    # class sums and their rational combinations (central), the same with
    # one square-block term added, uniform random elements and every
    # off-diagonal basis element: both routes give the same verdict
    rng = random.Random(14)
    B = enumerate_basis(n, d)
    square = [D for D in B if row_sums(D) == col_sums(D)]
    sums = [centre_basis_element(shape, n, d) for shape in partitions_of(d)]
    elements = list(sums)
    for _ in range(4):
        central = sum(
            (z.scale(Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for z in sums),
            SchurElement.zero(n, d),
        )
        elements.append(central)
        elements.append(central + basis_element(rng.choice(square)))
        elements.append(SchurElement(n, d, {
            D: Fraction(rng.randint(1, 5), rng.randint(1, 3)) for D in rng.sample(B, 3)
        }))
    elements += [basis_element(D) for D in B if not is_diagonal(D)]
    verdicts = [is_central(x) for x in elements]
    assert [commutes_with_generators(x) for x in elements] == verdicts
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("n, d", [(2, 2), (2, 3), (3, 3)])
def test_generator_route_refuses_the_sum_of_the_off_diagonal_pieces(n, d):
    # x commutes with 1 + x, the plain sum of every generator index, but
    # not with each of them
    indices = generator_indices(n, d)
    x = SchurElement(n, d, {D: 1 for D in indices if not is_diagonal(D)})
    plain = SchurElement(n, d, dict.fromkeys(indices, 1))
    assert multiply(x, plain) == multiply(plain, x)
    assert not is_central(x)
    assert not commutes_with_generators(x)


def test_generator_route_takes_two_products(monkeypatch):
    real, calls = schuralg.centre.multiply, []

    def counted(x, y):
        calls.append((x, y))
        return real(x, y)

    monkeypatch.setattr(schuralg.centre, "multiply", counted)
    central = centre_basis_element((2, 1), 3, 3)
    off_diagonal = basis_element(((0, 1, 0), (0, 0, 0), (0, 0, 2)))
    assert [commutes_with_generators(x) for x in (central, off_diagonal)] == [True, False]
    assert len(calls) == 4


def test_centrality_check_fails_on_a_non_central_class_sum(monkeypatch):
    n, d = 3, 3
    assert check_centrality(n, d).status == PASS
    real = schuralg.verification.centre_basis_element
    D = ((2, 1, 0), (0, 0, 0), (0, 0, 0))  # row sums (3, 0, 0), column sums (2, 1, 0)

    def with_off_diagonal_term(shape, n, d):
        return real(shape, n, d) + basis_element(D)

    monkeypatch.setattr(schuralg.verification, "centre_basis_element", with_off_diagonal_term)
    assert check_centrality(n, d).status == FAIL


def test_centrality_check_never_enumerates_the_basis(monkeypatch):
    expected = check_centrality(3, 4)

    def refuse(n, d):
        raise AssertionError("the whole basis was enumerated")

    for module in (schuralg.basis, schuralg.centre, schuralg.verification):
        monkeypatch.setattr(module, "enumerate_basis", refuse)
    assert check_centrality(3, 4) == expected
    assert expected.status == PASS


@pytest.mark.parametrize("n, d", [(2, 4), (3, 4), (3, 6)])
def test_centre_elements_match_validated_construction(n, d):
    square = [D for D in enumerate_basis(n, d) if row_sums(D) == col_sums(D)]
    shapes = partitions_of(d)
    sums = {shape: centre_basis_element(shape, n, d) for shape in shapes}
    for shape, z in sums.items():
        assert z == SchurElement(n, d, {D: class_coefficient(shape, D) for D in square})
        assert all(type(c) is Fraction and c for c in z.terms.values())
        e = primitive_idempotent(shape, n, d)
        validated = sum(
            (sums[mu].scale(Fraction(tableaux_count(shape) * character(shape, mu), factorial(d)))
             for mu in shapes),
            SchurElement.zero(n, d),
        )
        assert e == validated
        assert all(type(c) is Fraction and c for c in e.terms.values())


def test_pair_count_cache_is_bounded():
    assert _pair_count.cache_info().maxsize is not None


# ---------------------------------------------------------- idempotents

def test_single_row_idempotent():
    for (n, d) in [(1, 3), (2, 4), (3, 3)]:
        e = primitive_idempotent((d,), n, d)
        assert not e.is_zero()
        assert multiply(e, e) == e


def test_idempotent_vanishes_beyond_letter_count():
    assert primitive_idempotent((2, 1, 1), 2, 4).is_zero()
    assert primitive_idempotent((1, 1, 1, 1), 2, 4).is_zero()


def test_resolution_of_identity_two_four():
    eps = {s: primitive_idempotent(s, 2, 4) for s in [(4,), (3, 1), (2, 2)]}
    assert sums_to_identity(eps, 2, 4)


def test_idempotents_orthogonal_two_four():
    eps = {s: primitive_idempotent(s, 2, 4) for s in partitions_of(4)}
    assert first_non_idempotent(eps) is None
    assert first_non_orthogonal_pair(eps) is None


def test_idempotent_laws_report_the_first_violation():
    eps = {s: primitive_idempotent(s, 2, 3) for s in partitions_of(3)}
    assert first_non_idempotent(eps) is None
    assert first_non_orthogonal_pair(eps) is None
    assert sums_to_identity(eps, 2, 3)
    assert first_non_idempotent({**eps, (2, 1): eps[(2, 1)].scale(2)}) == (2, 1)
    overlap = {**eps, (1, 1, 1): eps[(3,)]}
    assert first_non_orthogonal_pair(overlap) == ((3,), (1, 1, 1))
    assert not sums_to_identity({(3,): eps[(3,)]}, 2, 3)


def idempotent_family(n, d):
    return {s: primitive_idempotent(s, n, d) for s in partitions_of(d)}


def broken_families(eps, n, d):
    """Families that break a law, each named: one element scaled by 2, e_a
    replaced by e_a + e_b, and one coefficient shifted by 1/(2L), with L the
    lcm of every denominator, which changes the common denominator."""
    nonzero = [s for s, e in eps.items() if not e.is_zero()]
    a, b = nonzero[0], nonzero[-1]
    L = lcm(*(c.denominator for e in eps.values() for c in e.terms.values()))
    D = eps[a].support()[0]
    shift = SchurElement(n, d, {D: Fraction(1, 2 * L)})
    yield "scaled", {**eps, b: eps[b].scale(2)}
    yield "sum", {**eps, a: eps[a] + eps[b]}
    yield "shifted", {**eps, a: eps[a] + shift}


def exhaustive_laws(eps):
    return first_non_idempotent(eps), first_non_orthogonal_pair(eps)


@pytest.mark.parametrize("n, d", [(1, 3), (2, 3), (2, 4), (3, 3), (3, 4), (2, 6), (2, 0)])
def test_one_product_law_check_accepts_the_idempotents(monkeypatch, n, d):
    calls = []

    def counted(x, y):
        calls.append(1)
        return multiply(x, y)

    monkeypatch.setattr(schuralg.verification, "multiply", counted)
    eps = idempotent_family(n, d)
    assert idempotent_law_failures(eps, n, d) == (None, None)
    assert len(calls) == 1
    monkeypatch.undo()
    assert exhaustive_laws(eps) == (None, None)


@pytest.mark.parametrize("n, d", [(2, 3), (2, 4), (3, 3), (3, 4)])
def test_one_product_law_check_rejects_broken_families(n, d):
    eps = idempotent_family(n, d)
    for name, bad in broken_families(eps, n, d):
        expected = exhaustive_laws(bad)
        assert expected != (None, None), name
        assert idempotent_law_failures(bad, n, d) == expected, name


def test_one_product_law_check_is_not_fooled_by_carries():
    # with X = E_0 + b E_1 and Y = E_0 + b^2 E_1 over base b, the family
    # e_0 = a u, e_1 = u (u idempotent) gives X Y - Z = L^2 a (a - 1 + b + b^2) u,
    # zero at a = 1 - b - b^2: only a base above twice every digit rejects it
    u = primitive_idempotent((2,), 2, 2)
    for b in range(2, 40):
        bad = {(2,): u.scale(1 - b - b * b), (1, 1): u}
        assert idempotent_law_failures(bad, 2, 2) == exhaustive_laws(bad) == ((2,), ((2,), (1, 1)))


@pytest.mark.parametrize("n, d", [(2, 3), (3, 4)])
def test_a_zeroed_idempotent_keeps_the_laws_but_not_the_identity(n, d):
    eps = idempotent_family(n, d)
    for s in (s for s, e in eps.items() if not e.is_zero()):
        bad = {**eps, s: SchurElement.zero(n, d)}
        assert idempotent_law_failures(bad, n, d) == exhaustive_laws(bad) == (None, None)
        assert not sums_to_identity(bad, n, d)


@pytest.mark.parametrize("family", ["scaled", "sum", "shifted"])
def test_failing_family_reports_match_the_exhaustive_scan(monkeypatch, capsys, family):
    n, d = 2, 3
    bad = dict(broken_families(idempotent_family(n, d), n, d))[family]
    monkeypatch.setattr(schuralg.cli, "primitive_idempotent", lambda s, n, d: bad[s])
    monkeypatch.setattr(schuralg.verification, "primitive_idempotent", lambda s, n, d: bad[s])
    checks = {
        "idempotent": first_non_idempotent(bad) is None,
        "orthogonal": first_non_orthogonal_pair(bad) is None,
        "resolution_of_identity": sums_to_identity(bad, n, d),
    }
    assert not all(checks.values())
    lines = [f"e{format_partition(s)} = {format_element(e)}" for s, e in bad.items()]
    lines += [
        f"idempotent: {checks['idempotent']}",
        f"orthogonal: {checks['orthogonal']}",
        f"sums to identity: {checks['resolution_of_identity']}",
    ]
    payload = {
        "command": "idempotents", "n": n, "d": d, "checks": checks,
        "idempotents": [
            {"partition": list(s), "element": element_to_json(e)} for s, e in bad.items()
        ],
    }
    argv = ["idempotents", "--n", str(n), "--d", str(d)]
    assert schuralg.cli.main(argv) == 1
    assert capsys.readouterr().out == "\n".join(lines) + "\n"
    assert schuralg.cli.main(argv + ["--output", "json"]) == 1
    assert capsys.readouterr().out == canonical_json(payload) + "\n"

    first_shape, first_pair = exhaustive_laws(bad)
    if first_shape is not None:
        detail = f"{first_shape} not idempotent"
    else:
        detail = f"{first_pair[0]},{first_pair[1]} not orthogonal"
    result = check_idempotents(n, d)
    assert (result.status, result.detail) == (FAIL, detail)


def test_class_sums_reconstructed_from_idempotents():
    # Z_mu = sum over shapes of |class mu| chi_shape(mu) / f_shape * eps_shape
    for (n, d) in [(2, 3), (2, 4), (3, 3)]:
        eps = {
            s: primitive_idempotent(s, n, d)
            for s in partitions_of(d)
            if len(s) <= n
        }
        for mu in partitions_of(d):
            expected = SchurElement.zero(n, d)
            for s, e in eps.items():
                weight = Fraction(class_size(mu) * character(s, mu), tableaux_count(s))
                expected = expected + e.scale(weight)
            assert expected == centre_basis_element(mu, n, d)


# ------------------------------------------------------------- dimension

def test_centre_dimension_square_case():
    assert centre_dimension(4, 4) == 5


def test_centre_dimension_single_letter():
    for d in range(5):
        assert centre_dimension(1, d) == 1


def test_centre_dimension_two_four():
    # the five class-sum vectors span only a 3-dimensional space here
    assert centre_dimension(2, 4) == 3


def brute_commutant_dimension(n, d):
    """Independent route: dimension of {x : x g = g x for all basis g},
    computed by intersecting nullspaces over the rationals."""
    B = enumerate_basis(n, d)
    m = len(B)
    mult_table = {}
    for Dx in B:
        for Dy in B:
            mult_table[(Dx, Dy)] = multiply(basis_element(Dx), basis_element(Dy)).terms
    basis_vecs = [[Fraction(1 if r == c else 0) for c in range(m)] for r in range(m)]
    for G in B:
        cols = []
        for vec in basis_vecs:
            acc = {}
            for k, coeff in enumerate(vec):
                if not coeff:
                    continue
                for P, c in mult_table[(B[k], G)].items():
                    acc[P] = acc.get(P, Fraction(0)) + coeff * c
                for P, c in mult_table[(G, B[k])].items():
                    acc[P] = acc.get(P, Fraction(0)) - coeff * c
            cols.append({k: v for k, v in acc.items() if v})
        keys = sorted(set().union(*[set(c) for c in cols]))
        if not keys:
            continue
        rows = [[cols[r].get(key, Fraction(0)) for r in range(len(basis_vecs))] for key in keys]
        pivots, rank = [], 0
        ncols = len(basis_vecs)
        for col in range(ncols):
            p = next((rr for rr in range(rank, len(rows)) if rows[rr][col]), None)
            if p is None:
                continue
            rows[rank], rows[p] = rows[p], rows[rank]
            lead = rows[rank][col]
            rows[rank] = [v / lead for v in rows[rank]]
            for rr in range(len(rows)):
                if rr != rank and rows[rr][col]:
                    f = rows[rr][col]
                    rows[rr] = [a - f * b for a, b in zip(rows[rr], rows[rank])]
            pivots.append(col)
            rank += 1
        free = [c for c in range(ncols) if c not in pivots]
        new_basis = []
        for fc in free:
            t = [Fraction(0)] * ncols
            t[fc] = Fraction(1)
            for rr, pc in enumerate(pivots):
                t[pc] = -rows[rr][fc]
            new_basis.append(
                [sum(t[r] * basis_vecs[r][c] for r in range(ncols)) for c in range(m)]
            )
        basis_vecs = new_basis
        if not basis_vecs:
            break
    return len(basis_vecs)


def test_centre_dimension_matches_commutant():
    for (n, d) in [(2, 2), (2, 3), (2, 4)]:
        assert centre_dimension(n, d) == brute_commutant_dimension(n, d)


def test_centre_dimension_counts_short_partitions():
    for (n, d) in [(2, 2), (2, 3), (2, 4), (3, 3), (4, 4), (1, 5)]:
        expected = sum(1 for s in partitions_of(d) if len(s) <= n)
        assert centre_dimension(n, d) == expected


def test_degenerate_weight_zero():
    assert partitions_of(0) == ((),)
    assert centre_dimension(2, 0) == 1
    assert centre_basis_element((), 2, 0) == identity_element(2, 0)
    e = primitive_idempotent((), 2, 0)
    assert e == identity_element(2, 0)
    assert multiply(e, e) == e
