import importlib
import itertools
import pkgutil
import random
from fractions import Fraction
from math import factorial, gcd, prod
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

import schuralg
from schuralg.basis import (
    basis_element,
    col_sums,
    enumerate_basis,
    identity_element,
    row_sums,
    SchurElement,
    weight_block,
)
from schuralg.centre import primitive_idempotent
from schuralg.multiplication import (
    _basis_product,
    _contingency_tables,
    _index_record,
    _margin_tables,
    _multinomial,
    _shared_matrix,
    class_multiplicity,
    compositions,
    euler_classes,
    multiply,
    product_graph,
    structure_constant,
)
from schuralg.oracle import multiply_via_oracle

# the documented 3-letter, 5-edge pair and its two composites
LEFT = ((2, 0, 0), (1, 0, 2), (0, 0, 0))
RIGHT = ((1, 0, 0), (1, 1, 0), (0, 2, 0))
COMPOSITE_A = ((1, 0, 0), (2, 0, 0), (0, 0, 2))
COMPOSITE_B = ((1, 0, 0), (1, 0, 1), (1, 0, 1))


@pytest.mark.parametrize(
    "caps", [(0,), (3,), (2, 0), (1, 3), (2, 2, 2), (0, 3, 1), (3, 1, 0, 2)]
)
def test_compositions_match_filtered_product(caps):
    for total in range(sum(caps) + 1):
        expected = sorted(
            (v for v in itertools.product(*(range(c + 1) for c in caps))
             if sum(v) == total),
            reverse=True,
        )
        assert list(compositions(total, caps)) == expected
    assert list(compositions(sum(caps) + 1, caps)) == []


@pytest.mark.parametrize(
    "rsums, csums",
    [((2,), (1, 1)), ((1, 2), (3,)), ((2, 1), (1, 2)), ((2, 0, 1), (1, 1, 1)),
     ((3, 1), (0, 2, 2)), ((1, 1), (1, 2)), ((2, 2), (3,))],
)
def test_contingency_tables_match_brute_force(rsums, csums):
    cells = [[range(min(r, c) + 1) for c in csums] for r in rsums]
    candidates = itertools.product(*(itertools.product(*row) for row in cells))
    expected = sorted(
        (m for m in candidates
         if tuple(map(sum, m)) == rsums and tuple(map(sum, zip(*m))) == csums),
        reverse=True,
    )
    tables = list(_contingency_tables(rsums, csums))
    assert tables == expected
    assert bool(tables) == (sum(rsums) == sum(csums))


def test_euler_classes_worked_pair_count():
    assert len(euler_classes(LEFT, RIGHT)) == 2


def test_euler_classes_worked_pair_product_graphs():
    graphs = {product_graph(c) for c in euler_classes(LEFT, RIGHT)}
    assert graphs == {COMPOSITE_A, COMPOSITE_B}


def test_euler_classes_worked_pair_multiplicities():
    mults = {
        product_graph(c): class_multiplicity(c) for c in euler_classes(LEFT, RIGHT)
    }
    # the doubled composite edge pair (dest 2, src 1) splits over two middle
    # vertices, so that class is realized by 2 middle-letter assignments
    assert mults == {COMPOSITE_A: 2, COMPOSITE_B: 1}


def test_euler_classes_diagonal_forced():
    diag = ((2, 0), (0, 1))
    classes = euler_classes(diag, diag)
    (tensor,) = classes
    n = 2
    mu = (2, 1)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                expected = mu[i] if (k == i == j) else 0
                assert tensor[k][i][j] == expected


def test_euler_classes_content_obstruction():
    # row sums of the left factor must match column sums of the right one
    left = ((2, 0), (0, 0))
    right = ((0, 0), (0, 2))
    assert euler_classes(left, right) == ()


def test_euler_classes_margins():
    for c in euler_classes(LEFT, RIGHT):
        n = 3
        for i in range(n):
            for j in range(n):
                assert sum(c[k][i][j] for k in range(n)) == LEFT[i][j]
        for k in range(n):
            for i in range(n):
                assert sum(c[k][i][j] for j in range(n)) == RIGHT[k][i]


def test_euler_classes_ambient_mismatch():
    with pytest.raises(ValueError):
        euler_classes(((1, 0), (0, 0)), ((2, 0), (0, 0)))
    with pytest.raises(ValueError):
        euler_classes(((1, 0), (0, 0)), ((1,),))
    with pytest.raises(ValueError):
        euler_classes(((1.0, 0), (0, 0)), ((1, 0), (0, 0)))
    with pytest.raises(ValueError):
        euler_classes(((1, 0), (0, 0)), ((True, 0), (0, 0)))


def test_product_core_does_not_revalidate(monkeypatch):
    # indices inside elements were validated when the elements were built;
    # only the public euler_classes checks its matrices
    def refuse(entries):
        raise RuntimeError(f"check_matrix({entries!r}) inside the product core")

    _basis_product.cache_clear()
    monkeypatch.setattr("schuralg.multiplication.check_matrix", refuse)
    x = SchurElement(2, 3, {((2, 0), (0, 1)): Fraction(1, 2), ((0, 0), (1, 2)): -3})
    y = SchurElement(
        2, 3, {((1, 1), (1, 0)): Fraction(-2, 3), ((0, 1), (2, 0)): 1, ((0, 0), (0, 3)): 5}
    )
    product = multiply(x, y)
    assert not product.is_zero()
    assert product == multiply_via_oracle(x, y)
    with pytest.raises(RuntimeError):
        euler_classes(((2, 0), (0, 1)), ((1, 1), (1, 0)))


@pytest.mark.parametrize("n, d", [(2, 3), (3, 2), (2, 4), (3, 3)])
def test_basis_product_matches_class_sum(n, d):
    # the convolution over middle vertices equals the sum of class
    # multiplicities grouped by composite graph, in sorted order
    B = enumerate_basis(n, d)
    for x, y in itertools.product(B, repeat=2):
        grouped: dict = {}
        for tensor in euler_classes(x, y):
            P = product_graph(tensor)
            grouped[P] = grouped.get(P, 0) + class_multiplicity(tensor)
        got = _basis_product(x, y)
        assert got == tuple(sorted(grouped.items()))
        assert all(type(c) is int for _, c in got)


@pytest.mark.parametrize("n, d", [(2, 4), (3, 3)])
def test_structure_constants_at_most_word_count(n, d):
    # the digit bound of verification.idempotent_law_failures rests on this:
    # a structure constant counts middle words, so it is at most n^d
    top = max(
        c
        for x, y in itertools.product(enumerate_basis(n, d), repeat=2)
        for _, c in _basis_product.__wrapped__(x, y)
    )
    assert 0 < top <= n**d


def sliced_basis_product(left, right):
    """The convolution over the middle vertices on flat entry tuples, with
    each table built from ``_contingency_tables`` and ``_multinomial`` and
    each output index sliced afresh from its flat entries: the build before
    tables were packed into integer codes and output indices shared."""
    if row_sums(left) != col_sums(right):
        return ()
    n = len(left)
    partial = {(0,) * (n * n): 1}
    for col, row in zip(zip(*right), left):
        if not any(row):
            continue
        folded = {}
        for S, c in partial.items():
            for T in _contingency_tables(col, row):
                w = prod(_multinomial(column) for column in zip(*T))
                key = tuple(map(add, S, sum(T, ())))
                folded[key] = folded.get(key, 0) + c * w
        partial = folded
    x_fact = prod(map(factorial, sum(left, ())))
    return tuple(sorted(
        (tuple(flat[r:r + n] for r in range(0, n * n, n)),
         prod(map(factorial, flat)) * c // x_fact)
        for flat, c in partial.items()
    ))


@pytest.mark.parametrize("n, d", [(2, 4), (3, 3)])
def test_shared_build_equals_sliced_build(n, d):
    for x, y in itertools.product(enumerate_basis(n, d), repeat=2):
        assert _basis_product(x, y) == sliced_basis_product(x, y)
    _basis_product.cache_clear()


def corner(n, d):
    """d times the matrix unit E_11 of side n: its one entry is d."""
    return tuple(tuple(d if (i, j) == (0, 0) else 0 for j in range(n)) for i in range(n))


@pytest.mark.parametrize("n, d", [(2, 5), (3, 4), (1, 0), (2, 0), (3, 0), (1, 3)])
def test_corner_squares_to_itself(n, d):
    # the output entry reaches d, the largest digit of base d + 1; d = 0
    # packs in base 1 (every code is 0), and n = 1 has one digit
    x = corner(n, d)
    assert _basis_product.__wrapped__(x, x) == ((x, 1),) == sliced_basis_product(x, x)
    assert multiply(basis_element(x), basis_element(x)) == basis_element(x)


def test_square_blocks_match_reference():
    # every ordered pair inside each square weight block at (2,6), among
    # them the corners with an entry equal to d
    n, d = 2, 6
    for lam in compositions(d, (d,) * n):
        block = [D for D, _, _ in weight_block(lam, lam)]
        for x, y in itertools.product(block, repeat=2):
            assert _basis_product.__wrapped__(x, y) == sliced_basis_product(x, y)


@st.composite
def meeting_pairs(draw):
    """An index pair (x, y) at n <= 4, d <= 6 whose middle vertices meet:
    the column sums of y are the row sums of x."""
    n, d = draw(st.integers(1, 4)), draw(st.integers(0, 6))

    def split(total, parts):
        cuts = sorted(draw(st.lists(st.integers(0, total), min_size=parts - 1,
                                    max_size=parts - 1)))
        return tuple(b - a for a, b in zip([0, *cuts], [*cuts, total]))

    flat = split(d, n * n)
    x = tuple(flat[r:r + n] for r in range(0, n * n, n))
    y = tuple(zip(*(split(s, n) for s in row_sums(x))))
    return x, y


@settings(max_examples=150, deadline=None)
@given(pair=meeting_pairs())
def test_packed_core_matches_reference(pair):
    x, y = pair
    got = _basis_product.__wrapped__(x, y)
    assert got and got == sliced_basis_product(x, y)
    assert [P for P, _ in got] == sorted(P for P, _ in got)


def test_product_cache_is_bounded():
    assert _basis_product.cache_info().maxsize is not None


@pytest.mark.parametrize("n, d", [(1, 0), (2, 0), (2, 4), (3, 3)])
def test_index_record_holds_margins_and_factorials(n, d):
    assert _index_record.cache_info().maxsize is not None
    for D in enumerate_basis(n, d):
        x_fact = prod(factorial(v) for row in D for v in row)
        assert _index_record(D) == (row_sums(D), col_sums(D), x_fact)


# The memos that may grow without bound.  Each is keyed by an (n, d), a
# content, a shape or a weight key, except ``_cycle_type_histogram``: it is
# keyed by a canonical word pair, one entry per square-block index, and it
# held 398 MB after ``centre_dimension(6, 8)``.
UNBOUNDED_MEMOS = {
    "enumerate_basis", "weight_block", "_cycle_type_histogram",
    "partitions_of", "permutations_by_type", "character",
}


def test_every_other_memo_is_bounded():
    memos = {}
    for info in pkgutil.iter_modules(schuralg.__path__):
        module = importlib.import_module(f"schuralg.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                memos[name] = obj.cache_info().maxsize
    assert UNBOUNDED_MEMOS | {"_basis_product", "_index_record"} <= memos.keys()
    assert {name for name, size in memos.items() if size is None} <= UNBOUNDED_MEMOS


def test_expansions_share_output_matrices():
    # equal output indices of different products are one object, in the
    # cached expansions and in multiply's results alike
    assert _shared_matrix.cache_info().maxsize is not None
    _basis_product.cache_clear()
    _shared_matrix.cache_clear()
    seen, repeats = {}, 0
    B = enumerate_basis(2, 3)
    for x, y in itertools.product(B, repeat=2):
        for P, _ in _basis_product(x, y):
            repeats += P in seen
            assert seen.setdefault(P, P) is P
        for P in multiply(basis_element(x), basis_element(y)).terms:
            assert seen[P] is P
    assert repeats > 0


def test_margin_cache_is_bounded_and_reused():
    assert _margin_tables.cache_info().maxsize is not None
    x = ((2, 0, 0), (1, 1, 0), (0, 0, 0))
    y = ((1, 1, 0), (1, 0, 0), (0, 1, 0))
    _basis_product.cache_clear()
    _margin_tables.cache_clear()
    first = _basis_product(x, y)
    assert first
    before = _margin_tables.cache_info()
    _basis_product.cache_clear()
    assert _basis_product(x, y) == first
    after = _margin_tables.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits


def test_product_graph_entry_sums():
    for c in euler_classes(LEFT, RIGHT):
        P = product_graph(c)
        assert sum(v for row in P for v in row) == 5


def test_multiply_worked_pair():
    # composition on the word space forces coefficient 2 on the first
    # composite; cross-checked against the dense operator realization
    got = multiply(basis_element(LEFT), basis_element(RIGHT))
    assert got == SchurElement(3, 5, {COMPOSITE_A: 2, COMPOSITE_B: 1})
    assert multiply_via_oracle(basis_element(LEFT), basis_element(RIGHT)) == got


def test_multiply_orientation_locked():
    # the written order feeds the left factor first: reversing the factors
    # hits the content obstruction and kills the product entirely
    rev = multiply(basis_element(RIGHT), basis_element(LEFT))
    assert rev.is_zero()


def test_weight_projector_idempotent():
    proj = basis_element(((2, 0), (0, 0)))
    assert multiply(proj, proj) == proj


def test_identity_neutral_on_random_sparse_elements():
    rng = random.Random(11)
    n, d = 2, 3
    B = enumerate_basis(n, d)
    e = identity_element(n, d)
    for _ in range(20):
        terms = {D: rng.randint(-3, 3) for D in rng.sample(B, rng.randint(1, 4))}
        x = SchurElement(n, d, terms)
        assert multiply(x, e) == x
        assert multiply(e, x) == x
        assert multiply_via_oracle(x, e) == x


def _reduced(z):
    return all(
        type(c) is Fraction and c.denominator > 0 and gcd(c.numerator, c.denominator) == 1
        for c in z.terms.values()
    )


def test_integer_numerator_product():
    # coprime denominators in two weight blocks of each factor
    x = SchurElement(2, 3, {((0, 1), (1, 1)): Fraction(1, 7), ((1, 1), (1, 0)): Fraction(2, 9)})
    y = SchurElement(2, 3, {
        ((1, 0), (0, 2)): Fraction(-3, 11),
        ((2, 0), (0, 1)): Fraction(1, 7),
        ((0, 1), (2, 0)): Fraction(2, 9),
    })
    for a, b in ((x, y), (y, x)):
        got = multiply(a, b)
        assert not got.is_zero() and _reduced(got)
        assert got == multiply_via_oracle(a, b)
    # distinct primitive central idempotents: every coefficient cancels
    e, f = primitive_idempotent((3,), 2, 3), primitive_idempotent((2, 1), 2, 3)
    assert multiply(e, f).is_zero() and multiply(f, e).is_zero()
    assert _reduced(multiply(e, e)) and multiply(e, e) == e
    zero = SchurElement.zero(2, 3)
    assert multiply(zero, y).is_zero() and multiply(y, zero).is_zero()
    assert multiply(zero, zero).is_zero()


def test_multiply_ambient_mismatch():
    with pytest.raises(ValueError):
        multiply(basis_element(((1, 0), (0, 0))), basis_element(((2, 0), (0, 0))))


def test_structure_constant_worked_pair():
    assert structure_constant(LEFT, RIGHT, COMPOSITE_A) == 2
    assert structure_constant(LEFT, RIGHT, COMPOSITE_B) == 1


def test_structure_constant_content_obstruction():
    left = ((2, 0), (0, 0))
    right = ((0, 0), (0, 2))
    target = ((1, 0), (0, 1))
    assert structure_constant(left, right, target) == 0


def test_structure_constant_matches_multiply_exhaustive():
    for (n, d) in [(2, 2), (2, 3)]:
        B = enumerate_basis(n, d)
        for Dx in B:
            for Dy in B:
                product = multiply(basis_element(Dx), basis_element(Dy))
                for Dt in B:
                    assert structure_constant(Dx, Dy, Dt) == product.coefficient(Dt)


def test_content_margins_of_products():
    for (n, d) in [(2, 3), (3, 2)]:
        B = enumerate_basis(n, d)
        for Dx in B:
            for Dy in B:
                product = multiply(basis_element(Dx), basis_element(Dy))
                for P in product.support():
                    assert col_sums(P) == col_sums(Dx)
                    assert row_sums(P) == row_sums(Dy)


def test_associativity_random_triples_small():
    rng = random.Random(3)
    B = enumerate_basis(2, 3)
    for _ in range(50):
        x, y, z = (basis_element(rng.choice(B)) for _ in range(3))
        assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


def test_bilinearity():
    rng = random.Random(5)
    B = enumerate_basis(2, 3)
    x = SchurElement(2, 3, {rng.choice(B): 2, rng.choice(B): -1})
    y = SchurElement(2, 3, {rng.choice(B): 3})
    z = SchurElement(2, 3, {rng.choice(B): 1, rng.choice(B): 5})
    assert multiply(x + y, z) == multiply(x, z) + multiply(y, z)
    assert multiply(z, x + y) == multiply(z, x) + multiply(z, y)
    assert multiply(x.scale(7), y) == multiply(x, y).scale(7)


# ------------------------------------------- rational elements, by block

SCALARS = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


def rational_elements(n, d):
    """Sparse elements with nonzero Fraction coefficients whose terms lie in
    at least two weight blocks (row sums, column sums)."""
    return st.dictionaries(
        st.sampled_from(enumerate_basis(n, d)), SCALARS, min_size=2, max_size=5
    ).filter(
        lambda terms: len({(row_sums(D), col_sums(D)) for D in terms}) >= 2
    ).map(lambda terms: SchurElement(n, d, terms))


SMALL_AMBIENTS = pytest.mark.parametrize("n, d", [(2, 3), (3, 2)])
PROPERTY = settings(max_examples=20, deadline=None)


@SMALL_AMBIENTS
@PROPERTY
@given(data=st.data())
def test_rational_product_matches_oracle(n, d, data):
    x, y = data.draw(rational_elements(n, d)), data.draw(rational_elements(n, d))
    assert multiply(x, y) == multiply_via_oracle(x, y)


@SMALL_AMBIENTS
@PROPERTY
@given(data=st.data())
def test_rational_product_bilinear(n, d, data):
    x, y, z = (data.draw(rational_elements(n, d)) for _ in range(3))
    a = data.draw(SCALARS)
    assert multiply(x.scale(a) + y, z) == multiply(x, z).scale(a) + multiply(y, z)
    assert multiply(z, x.scale(a) + y) == multiply(z, x).scale(a) + multiply(z, y)


@SMALL_AMBIENTS
@PROPERTY
@given(data=st.data())
def test_rational_product_associative(n, d, data):
    x, y, z = (data.draw(rational_elements(n, d)) for _ in range(3))
    assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


@SMALL_AMBIENTS
@PROPERTY
@given(data=st.data())
def test_rational_identity_law(n, d, data):
    x = data.draw(rational_elements(n, d))
    e = identity_element(n, d)
    assert multiply(e, x) == x == multiply(x, e)


def test_element_operator_overloads():
    x = basis_element(((2, 0), (0, 0)))
    assert x * x == multiply(x, x)
    assert (2 * x) * x == multiply(x, x).scale(2)


def _unweighted_product(x: dict, y: dict) -> dict:
    """Count every matching class once, ignoring class_multiplicity."""
    acc: dict = {}
    for Dx, cx in x.items():
        for Dy, cy in y.items():
            for cls in euler_classes(Dx, Dy):
                P = product_graph(cls)
                acc[P] = acc.get(P, 0) + cx * cy
    return {P: c for P, c in acc.items() if c}


def test_unweighted_rule_gives_stated_expansion_but_is_not_associative():
    # Acceptance criterion 1 states the (1,1) expansion of the worked pair.
    # Only the unweighted rule produces it, and that rule is no algebra
    # product: it breaks associativity on 96 of the 8000 basis triples at (2,3).
    assert _unweighted_product({LEFT: 1}, {RIGHT: 1}) == {COMPOSITE_A: 1, COMPOSITE_B: 1}
    B = enumerate_basis(2, 3)
    broken = sum(
        _unweighted_product(_unweighted_product({x: 1}, {y: 1}), {z: 1})
        != _unweighted_product({x: 1}, _unweighted_product({y: 1}, {z: 1}))
        for x in B
        for y in B
        for z in B
    )
    assert (len(B) ** 3, broken) == (8000, 96)
