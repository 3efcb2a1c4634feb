"""Named self-checks over a chosen ambient (n, d).

Each check returns a CheckResult so the CLI can print one line per check
and exit nonzero when anything fails.  The acceptance test suite drives
the same functions at pinned sizes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb, factorial, lcm

from .basis import (
    Matrix,
    SchurElement,
    basis_count,
    basis_element,
    canonical_pair,
    col_sums,
    enumerate_basis,
    identity_element,
    kronecker_sum,
    matrix_from_pair,
    meeting_index,
    row_sums,
    weight_block,
)
from .centre import (
    _cycle_type_histogram,
    centre_basis_element,
    class_coefficient,
    commutes_with_generators,
    primitive_idempotent,
)
from .multiplication import _uncached_product, multiply, structure_constant
from .oracle import TensorDimensionError, find_product_mismatch
from .partitions import (
    Partition,
    character,
    class_size,
    inverse_permutation,
    partitions_of,
    permutations_by_type,
    permute_positions,
    tableaux_count,
)

PASS, FAIL, SKIP = "pass", "fail", "skip"

# Meeting pairs above which a check samples instead of scanning them all,
# the pairs sampled by structure and associativity, and the seed; see ``_scope``.
STRUCTURE_PAIRS_LIMIT = 1_000
SAMPLED_PAIRS = 50
MARGIN_PAIRS_LIMIT = 10_000
SAMPLE_SEED = 0


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status == FAIL


def _result(name: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, PASS if ok else FAIL, detail)


def check_dimension_law(n: int, d: int) -> CheckResult:
    expected = comb(n * n + d - 1, d)
    actual = len(enumerate_basis(n, d))
    return _result(
        "dimension-law",
        actual == expected == basis_count(n, d),
        f"|M({n},{d})| = {actual}, formula {expected}",
    )


def check_pair_roundtrip(n: int, d: int) -> CheckResult:
    for D in enumerate_basis(n, d):
        top, bottom = canonical_pair(D)
        if matrix_from_pair(top, bottom, n) != D:
            return _result("pair-roundtrip", False, f"failed at {D}")
    return _result("pair-roundtrip", True)


def check_identity_neutral(n: int, d: int) -> CheckResult:
    """e x = x = x e for the identity e and every basis element x, by one
    exact product per side for each weight lambda: e X = X = X e for X the
    ``kronecker_sum`` of the indices of column sums lambda, the ys of
    ``meeting_index``.  e has |Lambda(n,d)| terms of coefficient 1, so the
    bound is |Lambda(n,d)| n^d + 1.  One X over the whole basis would also
    do, but its coefficients hold about |B|^2 log2(B) / 2 bits, which grows
    the process to 211 MB at (3,7); one X per lambda holds the sum of the
    squared group sizes instead.  Only when a product differs is the basis
    scanned one index at a time, so the detail names the first failing
    index."""
    e, B = identity_element(n, d), enumerate_basis(n, d)
    bound = len(e.terms) * n**d + 1
    for _, ys in meeting_index(n, d).values():
        x = kronecker_sum([{B[k]: 1} for k in ys], bound, n, d)
        if multiply(e, x) != x or multiply(x, e) != x:
            break
    else:
        return _result("identity-neutral", True)
    for D in B:
        x = basis_element(D)
        if multiply(e, x) != x or multiply(x, e) != x:
            return _result("identity-neutral", False, f"failed at {D}")
    return _result("identity-neutral", False, "failed on a weighted sum of basis elements")


def check_oracle_equivalence(n: int, d: int) -> CheckResult:
    try:
        mismatch = find_product_mismatch(n, d)
    except TensorDimensionError as exc:
        return CheckResult("oracle-equivalence", SKIP, str(exc))
    if mismatch is not None:
        return _result("oracle-equivalence", False, f"pair {mismatch}")
    pairs = len(enumerate_basis(n, d)) ** 2
    return _result("oracle-equivalence", True, f"{pairs} ordered pairs")


def _scope(n: int, d: int, limit: int, draws: int) -> tuple[list[tuple[Matrix, Matrix]], str]:
    """The meeting pairs a check visits, distinct and in basis order, and a
    detail naming them: all if at most ``limit``, else those at ``draws``
    positions of the basis-order scan, drawn by the seeded rng without
    replacement.  The pairs and their count come from ``meeting_index``;
    the scan is a generator, so the pairs are never listed."""
    B, index = enumerate_basis(n, d), meeting_index(n, d)
    total = sum(len(xs) * len(ys) for xs, ys in index.values())
    if total <= limit:
        picks, scope = range(total), f"all {total} meeting pairs"
    else:
        picks = set(random.Random(SAMPLE_SEED).sample(range(total), draws))
        scope = f"{draws} of {total} meeting pairs"
    scan = ((x, B[k]) for x in B for k in index[row_sums(x)][1])
    return [pair for k, pair in enumerate(scan) if k in picks], scope


def check_structure_constants(n: int, d: int) -> CheckResult:
    """The product core agrees with ``structure_constant`` at (x, y, t) for
    each scoped meeting pair (x, y) and t in the weight block (row_sums(y),
    col_sums(x)); every other coefficient is zero on both sides by the
    margin laws.  Each pair is expanded once, uncached, and read at its block
    reversed, which is basis order, so every scan meets its triples, and the
    first failing one, in ``itertools.product(B, repeat=3)`` order."""
    pairs, scope = _scope(n, d, STRUCTURE_PAIRS_LIMIT, SAMPLED_PAIRS)
    triples = nonzero = 0
    for Dx, Dy in pairs:
        table = dict(_uncached_product(Dx, Dy))
        for Dt, _, _ in reversed(weight_block(row_sums(Dy), col_sums(Dx))):
            if (c := structure_constant(Dx, Dy, Dt)) != table.get(Dt, 0):
                return _result("structure-constants", False, f"triple {(Dx, Dy, Dt)}")
            triples, nonzero = triples + 1, nonzero + (c != 0)
    return _result("structure-constants", True, f"{scope}, {triples} triples, {nonzero} nonzero")


def check_content_margins(n: int, d: int) -> CheckResult:
    """Products of the scoped meeting pairs inherit column sums from the left
    factor and row sums from the right (the oracle checks that the other
    products are empty).  Each pair is expanded once, by the uncached core;
    the margins are recomputed here, not read from the core's records."""
    pairs, scope = _scope(n, d, MARGIN_PAIRS_LIMIT, MARGIN_PAIRS_LIMIT)
    for Dx, Dy in pairs:
        source, target = col_sums(Dx), row_sums(Dy)
        for P, _ in _uncached_product(Dx, Dy):
            if col_sums(P) != source or row_sums(P) != target:
                return _result("content-margins", False, f"pair {(Dx, Dy)} -> {P}")
    return _result("content-margins", True, scope)


def check_centrality(n: int, d: int) -> CheckResult:
    """Every class sum commutes with the generators e_i, f_i and 1_lambda of
    S(n,d) over Q (``basis.generator_indices``), hence with the whole
    algebra; the basis is not enumerated."""
    for shape in partitions_of(d):
        if not commutes_with_generators(centre_basis_element(shape, n, d)):
            return _result("centrality", False, f"class sum {shape} not central")
    return _result("centrality", True, f"{len(partitions_of(d))} class sums")


def check_row_sum_law(n: int, d: int) -> CheckResult:
    """Summing class coefficients over all output words of a fixed input word
    recovers the class size: each class member contributes exactly one word.

    One input word per letter content suffices.  A position permutation pi
    sends the pair (t, b) to (pi.t, pi.b) with the same index matrix, so the
    matrices over all tops t are the same multiset for b and for pi.b.  The
    sorted words come in lexicographic order and each is the first word of
    its content, so the first failure is the one a scan of every word finds.

    The class coefficient of shape s at the matrix of (top, bottom) is the
    count of s in the cycle-type histogram of that matrix's canonical pair,
    so one histogram per (top, bottom) serves every shape.  The canonical
    pair is the columns (top[k], bottom[k]) in sorted order (see
    ``basis.canonical_pair``), read off without building the matrix.
    """
    sizes = {shape: class_size(shape) for shape in partitions_of(d)}
    tops = list(itertools.product(range(1, n + 1), repeat=d))
    for bottom in itertools.combinations_with_replacement(range(1, n + 1), d):
        totals = dict.fromkeys(sizes, 0)
        for top in tops:
            columns = sorted(zip(top, bottom))
            pair = tuple(a for a, _ in columns), tuple(b for _, b in columns)
            for shape, count in _cycle_type_histogram(*pair).items():
                totals[shape] += count
        for shape, size in sizes.items():
            if (got := totals[shape]) != size:
                return _result("row-sum-law", False, f"shape {shape}, word {bottom}: {got}")
    return _result("row-sum-law", True)


def check_action_convention(n: int, d: int) -> CheckResult:
    """Counting with w or with w^{-1} yields the same class coefficients, and
    a full scan of S_d agrees with ``class_coefficient``, which counts the
    carriers by joining open paths over the multigraph of D instead."""
    if d > 5:
        return CheckResult("action-convention", SKIP, "exhaustive only for d <= 5")
    by_type = permutations_by_type(d)
    inverses = {shape: [inverse_permutation(w) for w in ws] for shape, ws in by_type.items()}
    for D in enumerate_basis(n, d):
        top, bottom = canonical_pair(D)
        for shape, ws in by_type.items():
            direct = sum(1 for w in ws if permute_positions(w, bottom) == top)
            inverse = sum(1 for w in inverses[shape] if permute_positions(w, bottom) == top)
            if direct != inverse:
                return _result("action-convention", False, f"{shape} at {D}")
            if direct != class_coefficient(shape, D):
                return _result("action-convention", False, f"stored count off at {D}")
    return _result("action-convention", True)


def first_non_idempotent(eps: dict[Partition, SchurElement]) -> Partition | None:
    """The first shape whose element e has e * e != e, or None."""
    return next((s for s, e in eps.items() if multiply(e, e) != e), None)


def first_non_orthogonal_pair(
    eps: dict[Partition, SchurElement],
) -> tuple[Partition, Partition] | None:
    """The first ordered pair of distinct shapes whose elements have a
    nonzero product, or None."""
    return next(
        ((s, t) for s in eps for t in eps
         if s != t and not multiply(eps[s], eps[t]).is_zero()),
        None,
    )


def idempotent_law_failures(
    eps: dict[Partition, SchurElement], n: int, d: int
) -> tuple[Partition | None, tuple[Partition, Partition] | None]:
    """The first non-idempotent shape and the first non-orthogonal ordered
    pair, as ``first_non_idempotent`` and ``first_non_orthogonal_pair`` name
    them, or None for each law that holds; the laws are checked with one
    exact product of sums built by ``kronecker_sum``, which proves the lemma.

    A zero element obeys every law, so only the p nonzero elements
    e_0..e_{p-1} enter.  With L the lcm of all their coefficients'
    denominators, E_i = L e_i has integer coefficients, and the laws
    e_i e_j = delta_ij e_i read E_i E_j = delta_ij L E_i.  With S the
    largest l1 norm of an E_i, each coefficient of E_i E_j - delta_ij L E_i
    is at most n^d S^2 + L S, the bound.  Over B = 2 bound + 1, put

        X = sum_i B^i E_i,   Y = sum_j B^(p j) E_j,
        Z = sum_i L B^(i + p i) E_i:

    in Y each E_j is followed by p - 1 empty parts, in Z each L E_i by p.
    Then X Y - Z = sum_(i,j) B^(i + p j) (E_i E_j - delta_ij L E_i), whose
    exponents i + p j are distinct, so X Y == Z iff every law holds.

    Only when the product differs are the laws scanned pair by pair, so the
    names are the ones the exhaustive functions give.  If the scans name
    nothing, the product itself is wrong, and both laws fail as
    ((), ((), ())): a named pair has two distinct shapes, so this one
    names no law.
    """
    nonzero = [e for e in eps.values() if not e.is_zero()]
    p = len(nonzero)
    scale = lcm(*(c.denominator for e in nonzero for c in e.terms.values()))
    scaled = [
        {D: c.numerator * (scale // c.denominator) for D, c in e.terms.items()}
        for e in nonzero
    ]
    norm = max((sum(map(abs, E.values())) for E in scaled), default=0)
    bound = n**d * norm * norm + scale * norm
    x = kronecker_sum(scaled, bound, n, d)
    y = kronecker_sum((F for E in scaled for F in [E] + [{}] * (p - 1)), bound, n, d)
    z = kronecker_sum(
        (F for E in scaled for F in [{D: scale * c for D, c in E.items()}] + [{}] * p),
        bound, n, d,
    )
    if multiply(x, y) == z:
        return None, None
    shape, pair = first_non_idempotent(eps), first_non_orthogonal_pair(eps)
    if shape is None and pair is None:
        return (), ((), ())
    return shape, pair


def sums_to_identity(eps: dict[Partition, SchurElement], n: int, d: int) -> bool:
    """True iff the elements sum to the identity of S(n,d)."""
    return sum(eps.values(), SchurElement.zero(n, d)) == identity_element(n, d)


def check_idempotents(n: int, d: int) -> CheckResult:
    shapes = partitions_of(d)
    eps = {s: primitive_idempotent(s, n, d) for s in shapes}
    for s in shapes:
        if len(s) > n and not eps[s].is_zero():
            return _result("idempotents", False, f"{s} has >{n} parts but is nonzero")
    s, pair = idempotent_law_failures(eps, n, d)
    if pair == ((), ()):
        return _result("idempotents", False, "failed on a weighted sum of idempotents")
    if s is not None:
        return _result("idempotents", False, f"{s} not idempotent")
    if pair is not None:
        return _result("idempotents", False, f"{pair[0]},{pair[1]} not orthogonal")
    if not sums_to_identity(eps, n, d):
        return _result("idempotents", False, "resolution of identity failed")
    return _result("idempotents", True, f"{sum(1 for s in shapes if len(s) <= n)} idempotents")


def check_characters(d: int) -> CheckResult:
    sizes = {mu: class_size(mu) for mu in partitions_of(d)}
    for shape in sizes:
        if character(shape, (1,) * d) != tableaux_count(shape):
            return _result("characters", False, f"identity column off at {shape}")
    if sum(sizes.values()) != factorial(d):
        return _result("characters", False, "class sizes do not sum to d!")
    for a in sizes:
        for b in sizes:
            s = sum(size * character(a, mu) * character(b, mu) for mu, size in sizes.items())
            if s != (factorial(d) if a == b else 0):
                return _result("characters", False, f"orthogonality off at {a},{b}")
    return _result("characters", True, f"{len(sizes)} irreducibles")


def check_associativity(n: int, d: int, count: int = SAMPLED_PAIRS) -> CheckResult:
    """(x y) z = x (y z) on chained triples: (x, y) are the meeting pairs
    ``_scope`` picks, at most ``count``, and z is a seeded draw from the
    indices meeting y, the ys of ``meeting_index`` at row_sums(y), so
    neither side is zero."""
    rng, B, index = random.Random(SAMPLE_SEED), enumerate_basis(n, d), meeting_index(n, d)
    pairs, _ = _scope(n, d, count, count)
    for Dx, Dy in pairs:
        Dz = B[rng.choice(index[row_sums(Dy)][1])]
        x, y, z = map(basis_element, (Dx, Dy, Dz))
        if multiply(multiply(x, y), z) != multiply(x, multiply(y, z)):
            return _result("associativity", False, f"{x!r}, {y!r}, {z!r}")
    return _result("associativity", True, f"{len(pairs)} chained triples")


def run_suite(n: int, d: int) -> list[CheckResult]:
    """Every check that applies at (n, d), in a fixed order."""
    results = [
        check_dimension_law(n, d),
        check_pair_roundtrip(n, d),
        check_identity_neutral(n, d),
        check_oracle_equivalence(n, d),
        check_structure_constants(n, d),
        check_content_margins(n, d),
        check_centrality(n, d),
        check_row_sum_law(n, d),
        check_action_convention(n, d),
        check_idempotents(n, d),
        check_characters(d),
        check_associativity(n, d),
    ]
    return results
