"""The benchmark workloads: seeded inputs, the timed job, output checks.

Each workload is a class with four steps, run inside one fresh child
process (see child.py):

- ``__init__(seed)`` builds the inputs and sets ``planned_ops``; it is
  part of set-up, not the job.
- ``run(tracer)`` is the timed job.  It returns one ``Op`` per operation
  (a CLI invocation or a product) with its wall time and raw output.
- ``check(ops, repeat)`` runs after the timed region and returns, per op,
  an empty string when the output is right or the reason it is wrong.
  Every check uses a route independent of the one that produced the
  output: dense operators for products, closed-form counts for the CLI.
- ``properties()`` describes the inputs for the run metadata.

Why these three workloads is written in BENCHMARK.json and README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Any

import schuralg
from schuralg import cli
from schuralg.basis import SchurElement, col_sums, enumerate_basis, row_sums
from schuralg.formats import parse_matrix

from metrics import CHECK_NAMES

# The README's worked (3,5) pair.
WORKED_LEFT = "2,0,0;1,0,2;0,0,0"
WORKED_RIGHT = "1,0,0;1,1,0;0,2,0"


@dataclass
class Op:
    name: str
    seconds: float
    output: Any = None
    error: str = ""


@dataclass
class CliOutput:
    code: int
    stdout: str
    payload: dict = field(default_factory=dict)


def partitions_with_at_most(d: int, parts: int, largest: int | None = None) -> int:
    """Number of partitions of d into at most ``parts`` parts, each at most
    ``largest``; counted here so the CLI's answers are checked by a route
    that shares no code with the package."""
    if largest is None:
        largest = d
    if d == 0:
        return 1
    if parts == 0:
        return 0
    return sum(
        partitions_with_at_most(d - first, parts - 1, first)
        for first in range(1, min(d, largest) + 1)
    )


def _timed(name: str, fn) -> Op:
    start = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # one failed op must not stop the job
        return Op(name, time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
    return Op(name, time.perf_counter() - start, out)


def _run_cli(argv: list[str], tracer) -> CliOutput:
    buf = io.StringIO()
    with tracer.span(cli_span_name(argv)), contextlib.redirect_stdout(buf):
        code = cli.main(argv + ["--output", "json"])
    tracer.count("formats.output_bytes", len(buf.getvalue().encode()))
    return CliOutput(code, buf.getvalue())


def cli_span_name(argv: list[str]) -> str:
    """``["verify", "--n", "3", "--d", "3"]`` -> ``cli.verify.n3d3``."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    return f"cli.{argv[0]}.n{opts['--n']}d{opts['--d']}"


def _parse_cli(out: CliOutput | None) -> str:
    """Parse the JSON report in place; return a failure reason or ''."""
    if out is None:
        return "no output"
    if out.code != 0:
        return f"exit code {out.code}"
    try:
        out.payload = json.loads(out.stdout)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    return ""


class Verify:
    """Two ``verify`` suites and one dense-operator product."""

    name = "verify"
    suites = (["verify", "--n", "3", "--d", "3"], ["verify", "--n", "2", "--d", "6"])

    def __init__(self, seed: int):
        self.seed = seed
        self.left = schuralg.basis_element(parse_matrix(WORKED_LEFT))
        self.right = schuralg.basis_element(parse_matrix(WORKED_RIGHT))
        self.planned_ops = len(self.suites) + 1

    def run(self, tracer) -> list[Op]:
        ops = [_timed(cli_span_name(a), lambda a=a: _run_cli(a, tracer)) for a in self.suites]
        ops.append(_timed(
            "oracle.worked-pair",
            lambda: schuralg.multiply_via_oracle(self.left, self.right),
        ))
        return ops

    def check(self, ops: list[Op], repeat: int) -> list[str]:
        reasons = [check_suite(op.output) for op in ops[:2]]
        expected = schuralg.multiply(self.left, self.right)
        reasons.append(check_product(ops[2].output, expected))
        return reasons

    def properties(self) -> dict:
        return {
            "sizes": [
                {"n": 3, "d": 3, "basis_size": schuralg.basis_count(3, 3)},
                {"n": 2, "d": 6, "basis_size": schuralg.basis_count(2, 6)},
                {"n": 3, "d": 5, "basis_size": schuralg.basis_count(3, 5),
                 "oracle_pair": [WORKED_LEFT, WORKED_RIGHT]},
            ]
        }


def check_suite(out: CliOutput) -> str:
    """Every check passes, except ``action-convention``, which the suite
    skips for d > 5."""
    reason = _parse_cli(out)
    if reason:
        return reason
    d = out.payload.get("d", 0)
    statuses = {r["name"]: r["status"] for r in out.payload.get("results", ())}
    if set(statuses) != set(CHECK_NAMES):
        return f"unexpected check names {sorted(statuses)}"
    for name, status in statuses.items():
        want = "skip" if name == "action-convention" and d > 5 else "pass"
        if status != want:
            return f"{name} is {status}, expected {want}"
    return ""


def check_product(got: SchurElement | None, other_route: SchurElement) -> str:
    """A product must equal the same product computed by the other route."""
    if got is None:
        return "no product"
    if got != other_route:
        return f"the two product routes differ: {got!r} vs {other_route!r}"
    return ""


class Centre:
    """``idempotents --n 3 --d 6`` and ``dim --n 2 --d 8``."""

    name = "centre"
    commands = (["idempotents", "--n", "3", "--d", "6"], ["dim", "--n", "2", "--d", "8"])

    def __init__(self, seed: int):
        self.seed = seed
        self.planned_ops = len(self.commands)

    def run(self, tracer) -> list[Op]:
        return [_timed(cli_span_name(a), lambda a=a: _run_cli(a, tracer)) for a in self.commands]

    def check(self, ops: list[Op], repeat: int) -> list[str]:
        return [check_idempotents(ops[0].output, 3, 6), check_dim(ops[1].output, 2, 8)]

    def properties(self) -> dict:
        return {
            "sizes": [
                {"n": 3, "d": 6, "basis_size": schuralg.basis_count(3, 6)},
                {"n": 2, "d": 8, "basis_size": schuralg.basis_count(2, 8)},
            ]
        }


def check_idempotents(out: CliOutput, n: int, d: int) -> str:
    """All three law flags hold, one idempotent per partition of d, and the
    nonzero ones are those with at most n parts."""
    reason = _parse_cli(out)
    if reason:
        return reason
    checks = out.payload.get("checks", {})
    if sorted(checks) != ["idempotent", "orthogonal", "resolution_of_identity"]:
        return f"unexpected law flags {sorted(checks)}"
    if not all(v is True for v in checks.values()):
        return f"law flags {checks}"
    items = out.payload.get("idempotents", [])
    if len(items) != partitions_with_at_most(d, d):
        return f"{len(items)} idempotents, expected one per partition of {d}"
    nonzero = sum(1 for item in items if item["element"]["terms"])
    if nonzero != partitions_with_at_most(d, n):
        return f"{nonzero} nonzero idempotents, expected {partitions_with_at_most(d, n)}"
    return ""


def check_dim(out: CliOutput, n: int, d: int) -> str:
    """The basis size is C(n^2+d-1, d); the centre dimension is the number
    of partitions of d with at most n parts."""
    reason = _parse_cli(out)
    if reason:
        return reason
    if out.payload.get("basis_size") != comb(n * n + d - 1, d):
        return f"basis size {out.payload.get('basis_size')}"
    if out.payload.get("centre_dimension") != partitions_with_at_most(d, n):
        return f"centre dimension {out.payload.get('centre_dimension')}"
    return ""


class Products:
    """Ordered products of seeded sparse rational elements at (3,4).

    Even-numbered pairs draw both factors' terms uniformly from the basis.
    Odd-numbered pairs draw them inside matching weight blocks: every left
    term has row sums mu and every right term column sums mu, so every
    term pair has matching classes.  Each eligible mu is used equally
    often, which keeps the cost of the job steady across seeds.
    """

    name = "products"
    n, d = 3, 4
    terms = 20
    pairs_per_block = 12

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(seed)
        basis = enumerate_basis(self.n, self.d)
        by_rows: dict[tuple[int, ...], list] = {}
        by_cols: dict[tuple[int, ...], list] = {}
        for D in basis:
            by_rows.setdefault(row_sums(D), []).append(D)
            by_cols.setdefault(col_sums(D), []).append(D)
        # a block must hold enough matrices for one element's terms
        blocks = sorted(mu for mu in by_rows if len(by_rows[mu]) >= self.terms)
        block_order = blocks * self.pairs_per_block
        rng.shuffle(block_order)
        self.pairs: list[tuple[SchurElement, SchurElement]] = []
        for mu in block_order:
            self.pairs.append((self._element(rng, basis), self._element(rng, basis)))
            self.pairs.append((self._element(rng, by_rows[mu]), self._element(rng, by_cols[mu])))
        self.planned_ops = len(self.pairs)

    def _element(self, rng: random.Random, pool) -> SchurElement:
        terms = {}
        for D in rng.sample(pool, self.terms):
            terms[D] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        return SchurElement(self.n, self.d, terms)

    def run(self, tracer) -> list[Op]:
        multiply = schuralg.multiply
        ops = []
        with tracer.span("products.job"):
            for k, (x, y) in enumerate(self.pairs):
                start = time.perf_counter()
                product = multiply(x, y)
                ops.append(Op(f"product.{k}", time.perf_counter() - start, product))
        return ops

    def check(self, ops: list[Op], repeat: int) -> list[str]:
        """Compare one product, drawn by the seed, against dense-operator
        composition: a uniform pair on even repeats, a block pair on odd."""
        rng = random.Random(f"{self.seed}:{repeat}")
        k = 2 * rng.randrange(len(self.pairs) // 2) + repeat % 2
        reasons = [""] * len(ops)
        reasons[k] = check_product(ops[k].output, schuralg.multiply_via_oracle(*self.pairs[k]))
        return reasons

    def inputs_digest(self) -> str:
        return _digest([(x.sorted_terms(), y.sorted_terms()) for x, y in self.pairs])

    def properties(self) -> dict:
        compatible = total = 0
        for x, y in self.pairs:
            for Dx in x.terms:
                for Dy in y.terms:
                    total += 1
                    compatible += row_sums(Dx) == col_sums(Dy)
        return {
            "n": self.n,
            "d": self.d,
            "basis_size": schuralg.basis_count(self.n, self.d),
            "pairs": len(self.pairs),
            "terms_per_element": self.terms,
            "term_pairs": total,
            "compatible_share": compatible / total,
            "inputs_digest": self.inputs_digest(),
        }


def outputs_digest(ops: list[Op]) -> str:
    """Digest of every op's output, so repeats of one job can be compared."""
    parts = []
    for op in ops:
        out = op.output
        if isinstance(out, SchurElement):
            parts.append(out.sorted_terms())
        elif isinstance(out, CliOutput):
            parts.append((out.code, out.stdout))
        else:
            parts.append(op.error)
    return _digest(parts)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


WORKLOADS = {cls.name: cls for cls in (Verify, Products, Centre)}
