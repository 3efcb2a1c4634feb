"""Command line surface.

Commands: dim, basis, multiply, centre, idempotents, character-table,
verify, graph.  Output formats: text (default), json (canonical, rationals
as "p/q" strings), dot (graph renderings, multiply and graph only).  Each
command accepts only the options it reads.

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 resource guard
exceeded.

Resource guards (defaults): n <= 6, d <= 8; word space n^d <= 10_000 for
verify's oracle-backed checks (override with verify --max-tensor-dim);
basis enumeration capped at 200_000 matrices.
"""

from __future__ import annotations

import argparse
import sys
from math import factorial

from .basis import basis_count, basis_element, check_matrix, enumerate_basis
from .centre import centre_basis_element, centre_dimension, primitive_idempotent
from .formats import (
    canonical_json,
    element_to_json,
    euler_class_to_dot,
    format_element,
    format_matrix,
    format_partition,
    matrix_to_dot,
    parse_matrix,
    parse_partition,
)
from .multiplication import (
    class_multiplicity,
    euler_classes,
    multiply,
    product_graph,
)
from .oracle import DEFAULT_MAX_TENSOR_DIM, TensorDimensionError
from .partitions import class_size, character, partitions_of
from .verification import (
    FAIL,
    first_non_idempotent,
    first_non_orthogonal_pair,
    run_suite,
    sums_to_identity,
)

MAX_N = 6
MAX_D = 8
MAX_ENUMERATION = 200_000
CENTRE_DIM_FEASIBLE = 5_000

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _guard_ambient(n: int, d: int) -> None:
    if n < 1 or d < 0:
        raise ValueError(f"need n >= 1 and d >= 0, got ({n}, {d})")
    if n > MAX_N or d > MAX_D:
        raise TensorDimensionError(
            f"(n, d) = ({n}, {d}) outside guards n <= {MAX_N}, d <= {MAX_D}"
        )


def _guard_enumeration(n: int, d: int) -> None:
    size = basis_count(n, d)
    if size > MAX_ENUMERATION:
        raise TensorDimensionError(
            f"basis of M({n},{d}) has {size} matrices, over the {MAX_ENUMERATION} cap"
        )


def _ambient_from_matrices(args: argparse.Namespace, *matrices) -> tuple[int, int]:
    n, d = check_matrix(matrices[0])
    for m in matrices[1:]:
        if check_matrix(m) != (n, d):
            raise ValueError("operand matrices have mismatched shape or entry sum")
    if args.n is not None and args.n != n:
        raise ValueError(f"--n {args.n} does not match operand size {n}")
    if args.d is not None and args.d != d:
        raise ValueError(f"--d {args.d} does not match operand entry sum {d}")
    return n, d


def _emit(args: argparse.Namespace, text_lines: list[str], payload: dict) -> None:
    if args.output == "json":
        print(canonical_json(payload))
    else:
        for line in text_lines:
            print(line)


def _cmd_dim(args: argparse.Namespace) -> int:
    _guard_ambient(args.n, args.d)
    size = basis_count(args.n, args.d)
    payload: dict = {"command": "dim", "n": args.n, "d": args.d, "basis_size": size}
    lines = [f"|M({args.n},{args.d})| = {size}"]
    if size <= CENTRE_DIM_FEASIBLE:
        dim = centre_dimension(args.n, args.d)
        payload["centre_dimension"] = dim
        lines.append(f"centre dimension = {dim}")
    else:
        payload["centre_dimension"] = None
        lines.append("centre dimension = (skipped: basis too large)")
    _emit(args, lines, payload)
    return EXIT_OK


def _cmd_basis(args: argparse.Namespace) -> int:
    _guard_ambient(args.n, args.d)
    _guard_enumeration(args.n, args.d)
    B = enumerate_basis(args.n, args.d)
    payload = {
        "command": "basis",
        "n": args.n,
        "d": args.d,
        "count": len(B),
        "matrices": [[list(row) for row in D] for D in B],
    }
    _emit(args, [format_matrix(D) for D in B], payload)
    return EXIT_OK


def _cmd_multiply(args: argparse.Namespace) -> int:
    left = parse_matrix(args.left)
    right = parse_matrix(args.right)
    n, d = _ambient_from_matrices(args, left, right)
    _guard_ambient(n, d)
    product = multiply(basis_element(left), basis_element(right))
    if args.output == "dot":
        for idx, cls in enumerate(euler_classes(left, right)):
            print(euler_class_to_dot(cls, name=f"matching_{idx}"))
        return EXIT_OK
    payload: dict = {
        "command": "multiply",
        "n": n,
        "d": d,
        "left": [list(r) for r in left],
        "right": [list(r) for r in right],
        "product": element_to_json(product),
    }
    lines = [f"product = {format_element(product)}"]
    if args.show_euler:
        classes = euler_classes(left, right)
        payload["euler_classes"] = [
            {
                "tensor": [[list(r) for r in slice_] for slice_ in cls.tensor],
                "product_graph": [list(r) for r in product_graph(cls)],
                "multiplicity": class_multiplicity(cls),
            }
            for cls in classes
        ]
        lines.append(f"euler classes: {len(classes)}")
        for idx, cls in enumerate(classes):
            lines.append(
                f"  class {idx}: product graph [{format_matrix(product_graph(cls))}]"
                f" multiplicity {class_multiplicity(cls)} tensor {cls.tensor}"
            )
    _emit(args, lines, payload)
    return EXIT_OK


def _selected_shapes(args: argparse.Namespace) -> tuple[tuple[int, ...], ...]:
    shapes = partitions_of(args.d)
    if args.shape is None:
        return shapes
    wanted = parse_partition(args.shape)
    if wanted not in shapes:
        raise ValueError(f"{args.shape!r} is not a partition of {args.d}")
    return (wanted,)


def _cmd_centre(args: argparse.Namespace) -> int:
    _guard_ambient(args.n, args.d)
    _guard_enumeration(args.n, args.d)
    lines = []
    items = []
    for shape in _selected_shapes(args):
        z = centre_basis_element(shape, args.n, args.d)
        lines.append(f"Z{format_partition(shape)} = {format_element(z)}")
        items.append({"partition": list(shape), "element": element_to_json(z)})
    payload = {
        "command": "centre",
        "n": args.n,
        "d": args.d,
        "class_sums": items,
    }
    _emit(args, lines, payload)
    return EXIT_OK


def _cmd_idempotents(args: argparse.Namespace) -> int:
    _guard_ambient(args.n, args.d)
    _guard_enumeration(args.n, args.d)
    eps = {s: primitive_idempotent(s, args.n, args.d) for s in _selected_shapes(args)}
    lines = [f"e{format_partition(s)} = {format_element(e)}" for s, e in eps.items()]
    checks = {"idempotent": first_non_idempotent(eps) is None}
    lines.append(f"idempotent: {checks['idempotent']}")
    if args.shape is None:
        # pairwise laws only make sense over the complete family
        checks["orthogonal"] = first_non_orthogonal_pair(eps) is None
        checks["resolution_of_identity"] = sums_to_identity(eps, args.n, args.d)
        lines.append(f"orthogonal: {checks['orthogonal']}")
        lines.append(f"sums to identity: {checks['resolution_of_identity']}")
    payload = {
        "command": "idempotents",
        "n": args.n,
        "d": args.d,
        "idempotents": [
            {"partition": list(s), "element": element_to_json(e)} for s, e in eps.items()
        ],
        "checks": checks,
    }
    _emit(args, lines, payload)
    return EXIT_OK if all(checks.values()) else EXIT_VERIFY


def _cmd_character_table(args: argparse.Namespace) -> int:
    d = args.d
    if d < 0:
        raise ValueError(f"need d >= 0, got {d}")
    if d > MAX_D:
        raise TensorDimensionError(f"d = {d} outside guard d <= {MAX_D}")
    shapes = partitions_of(d)
    table = [[character(s, mu) for mu in shapes] for s in shapes]
    sizes = [class_size(mu) for mu in shapes]
    width = max(len(format_partition(s)) for s in shapes)
    lines = [
        " " * width
        + " | "
        + "  ".join(f"{format_partition(mu):>8}" for mu in shapes),
        " " * width + " | " + "  ".join(f"{s:>8}" for s in sizes) + "   (class sizes)",
    ]
    for s, row in zip(shapes, table):
        lines.append(
            f"{format_partition(s):>{width}} | "
            + "  ".join(f"{v:>8}" for v in row)
        )
    payload = {
        "command": "character-table",
        "d": d,
        "partitions": [list(s) for s in shapes],
        "class_sizes": sizes,
        "table": table,
        "order": factorial(d),
    }
    _emit(args, lines, payload)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    _guard_ambient(args.n, args.d)
    _guard_enumeration(args.n, args.d)
    if args.max_tensor_dim <= 0:
        raise ValueError(f"--max-tensor-dim must be positive, got {args.max_tensor_dim}")
    results = run_suite(args.n, args.d, args.max_tensor_dim)
    lines = [
        f"{r.status.upper():5} {r.name}" + (f" ({r.detail})" if r.detail else "")
        for r in results
    ]
    payload = {
        "command": "verify",
        "n": args.n,
        "d": args.d,
        "results": [
            {"name": r.name, "status": r.status, "detail": r.detail} for r in results
        ],
    }
    _emit(args, lines, payload)
    return EXIT_VERIFY if any(r.status == FAIL for r in results) else EXIT_OK


def _cmd_graph(args: argparse.Namespace) -> int:
    D = parse_matrix(args.matrix)
    n, d = _ambient_from_matrices(args, D)
    _guard_ambient(n, d)
    dot = matrix_to_dot(D)
    _emit(args, [dot], {"command": "graph", "n": n, "d": d, "dot": dot})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schuralg",
        description="Exact Schur algebra toolkit: basis, products, centre, idempotents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, need_n=True, need_d=True,
                   outputs=("text", "json")) -> None:
        p.add_argument("--n", type=int, required=need_n, default=None,
                       help="alphabet size (matrix side)")
        p.add_argument("--d", type=int, required=need_d, default=None,
                       help="word length (matrix entry sum)")
        p.add_argument("--output", choices=outputs, default="text")

    p = sub.add_parser("dim", help="basis size and centre dimension")
    add_common(p)
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("basis", help="list every index matrix")
    add_common(p)
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("multiply", help="product of two basis elements")
    p.add_argument("left", help="matrix literal, e.g. '2,0,0;1,0,2;0,0,0'")
    p.add_argument("right", help="matrix literal")
    p.add_argument("--show-euler", action="store_true",
                   help="print each matching class with its composite graph")
    add_common(p, need_n=False, need_d=False, outputs=("text", "json", "dot"))
    p.set_defaults(func=_cmd_multiply)

    p = sub.add_parser("centre", help="class-sum expansions")
    p.add_argument("--shape", default=None,
                   help="partition literal, e.g. '3,1'; restrict to one class sum")
    add_common(p)
    p.set_defaults(func=_cmd_centre)

    p = sub.add_parser("idempotents", help="primitive central idempotents")
    p.add_argument("--shape", default=None,
                   help="partition literal; restrict to one idempotent")
    add_common(p)
    p.set_defaults(func=_cmd_idempotents)

    p = sub.add_parser("character-table", help="symmetric group character table")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--output", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_character_table)

    p = sub.add_parser("verify", help="run the invariant suite at (n, d)")
    add_common(p)
    p.add_argument("--max-tensor-dim", type=int, default=DEFAULT_MAX_TENSOR_DIM,
                   help="override the oracle word-space guard")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("graph", help="DOT rendering of an index matrix")
    p.add_argument("matrix", help="matrix literal")
    add_common(p, need_n=False, need_d=False, outputs=("text", "json", "dot"))
    p.set_defaults(func=_cmd_graph)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except TensorDimensionError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
