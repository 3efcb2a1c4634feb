"""Command line surface.

Commands: dim, basis, multiply, centre, idempotents, character-table,
verify, graph.  Output formats: text (default), json (canonical, rationals
as "p/q" strings), dot (graph renderings, multiply and graph only).  Each
command accepts only the options it reads.

Inputs are checked once, before dispatch: ``main`` parses the matrix
operands of multiply and graph and derives (n, d) from them, then applies
the library's size rule (``basis.check_ambient``) and the resource guards.
The handlers only compute, and ``_emit`` adds the command, n and d to the
JSON payload.  Both outputs are passed lazily, the text lines as an iterable
and the payload as a function that builds it, so JSON never formats the text
and text never builds the payload.

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 resource guard
exceeded.

Resource guards: n <= 6, d <= 8; word space n^d <= 10_000 for verify's
oracle check, which SKIPs above it; basis, centre, idempotents and verify
refuse above 200_000 basis matrices, while dim answers every size inside
the n, d guards.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from math import factorial
from typing import Callable, Iterable

from .basis import (
    basis_count,
    basis_element,
    check_ambient,
    check_degree,
    check_matrix,
    enumerate_basis,
)
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
from .oracle import TensorDimensionError
from .partitions import class_size, character, partitions_of
from .verification import (
    first_non_idempotent,
    idempotent_law_failures,
    run_suite,
    sums_to_identity,
)

MAX_N = 6
MAX_D = 8
MAX_ENUMERATION = 200_000

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _check_inputs(args: argparse.Namespace) -> None:
    """Parse the matrix operands, derive (n, d) from them, and check the sizes
    against the library's rule and the resource guards: once, before dispatch."""
    if args.operands:
        matrices = [parse_matrix(getattr(args, name)) for name in args.operands]
        n, d = check_matrix(matrices[0])
        if any(check_matrix(m) != (n, d) for m in matrices[1:]):
            raise ValueError("operand matrices have mismatched shape or entry sum")
        if args.n is not None and args.n != n:
            raise ValueError(f"--n {args.n} does not match operand size {n}")
        if args.d is not None and args.d != d:
            raise ValueError(f"--d {args.d} does not match operand entry sum {d}")
        vars(args).update(zip(args.operands, matrices), n=n, d=d)
    if args.n is None:  # character-table reads d alone
        check_degree(args.d)
        size, guard = f"d = {args.d}", f"guard d <= {MAX_D}"
    else:
        check_ambient(args.n, args.d)
        size, guard = f"(n, d) = ({args.n}, {args.d})", f"guards n <= {MAX_N}, d <= {MAX_D}"
    if (args.n or 0) > MAX_N or args.d > MAX_D:
        raise TensorDimensionError(f"{size} outside {guard}")
    if args.capped and (count := basis_count(args.n, args.d)) > MAX_ENUMERATION:
        raise TensorDimensionError(
            f"basis of M({args.n},{args.d}) has {count} matrices, over the {MAX_ENUMERATION} cap"
        )


def _emit(
    args: argparse.Namespace, text_lines: Iterable[str], payload: Callable[[], dict]
) -> None:
    if args.output == "json":
        header = {"command": args.command, "d": args.d}
        if args.n is not None:
            header["n"] = args.n
        print(canonical_json(header | payload()))
    else:
        for line in text_lines:
            print(line)


def _cmd_dim(args: argparse.Namespace) -> int:
    size = basis_count(args.n, args.d)
    dim = centre_dimension(args.n, args.d)
    _emit(args, [f"|M({args.n},{args.d})| = {size}", f"centre dimension = {dim}"],
          lambda: {"basis_size": size, "centre_dimension": dim})
    return EXIT_OK


def _cmd_basis(args: argparse.Namespace) -> int:
    B = enumerate_basis(args.n, args.d)
    _emit(args, map(format_matrix, B),
          lambda: {"count": len(B), "matrices": [[list(row) for row in D] for D in B]})
    return EXIT_OK


def _cmd_multiply(args: argparse.Namespace) -> int:
    left, right = args.left, args.right
    if args.output == "dot":
        for idx, tensor in enumerate(euler_classes(left, right)):
            print(euler_class_to_dot(tensor, name=f"matching_{idx}"))
        return EXIT_OK
    product = multiply(basis_element(left), basis_element(right))
    classes = euler_classes(left, right) if args.show_euler else None

    def payload() -> dict:
        out = {
            "left": [list(r) for r in left],
            "right": [list(r) for r in right],
            "product": element_to_json(product),
        }
        if classes is not None:
            out["euler_classes"] = [
                {
                    "tensor": [[list(r) for r in layer] for layer in tensor],
                    "product_graph": [list(r) for r in product_graph(tensor)],
                    "multiplicity": class_multiplicity(tensor),
                }
                for tensor in classes
            ]
        return out

    lines = [f"product = {format_element(product)}"]
    if classes is not None:
        lines.append(f"euler classes: {len(classes)}")
        for idx, tensor in enumerate(classes):
            lines.append(
                f"  class {idx}: product graph [{format_matrix(product_graph(tensor))}]"
                f" multiplicity {class_multiplicity(tensor)} tensor {tensor}"
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
    sums = {s: centre_basis_element(s, args.n, args.d) for s in _selected_shapes(args)}
    lines = (f"Z{format_partition(s)} = {format_element(z)}" for s, z in sums.items())
    _emit(args, lines, lambda: {"class_sums": [
        {"partition": list(s), "element": element_to_json(z)} for s, z in sums.items()
    ]})
    return EXIT_OK


def _cmd_idempotents(args: argparse.Namespace) -> int:
    eps = {s: primitive_idempotent(s, args.n, args.d) for s in _selected_shapes(args)}
    if args.shape is None:
        shape, pair = idempotent_law_failures(eps, args.n, args.d)
        checks = {
            "idempotent": shape is None,
            "orthogonal": pair is None,
            "resolution_of_identity": sums_to_identity(eps, args.n, args.d),
        }
    else:  # one shape: the pairwise laws need the complete family
        checks = {"idempotent": first_non_idempotent(eps) is None}
    labels = {"resolution_of_identity": "sums to identity"}
    lines = itertools.chain(
        (f"e{format_partition(s)} = {format_element(e)}" for s, e in eps.items()),
        (f"{labels.get(name, name)}: {ok}" for name, ok in checks.items()),
    )
    _emit(args, lines, lambda: {
        "idempotents": [
            {"partition": list(s), "element": element_to_json(e)} for s, e in eps.items()
        ],
        "checks": checks,
    })
    return EXIT_OK if all(checks.values()) else EXIT_VERIFY


def _cmd_character_table(args: argparse.Namespace) -> int:
    shapes = partitions_of(args.d)
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
    _emit(args, lines, lambda: {
        "partitions": [list(s) for s in shapes],
        "class_sizes": sizes,
        "table": table,
        "order": factorial(args.d),
    })
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_suite(args.n, args.d)
    lines = [
        f"{r.status.upper():5} {r.name}" + (f" ({r.detail})" if r.detail else "")
        for r in results
    ]
    _emit(args, lines, lambda: {"results": [
        {"name": r.name, "status": r.status, "detail": r.detail} for r in results
    ]})
    return EXIT_VERIFY if any(r.failed for r in results) else EXIT_OK


def _cmd_graph(args: argparse.Namespace) -> int:
    dot = matrix_to_dot(args.matrix)
    _emit(args, [dot], lambda: {"dot": dot})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schuralg",
        description="Exact Schur algebra toolkit: basis, products, centre, idempotents.",
    )
    # marks read by _check_inputs, set per command below; neither is an option
    parser.set_defaults(operands=(), capped=False)
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
    p.set_defaults(func=_cmd_basis, capped=True)

    p = sub.add_parser("multiply", help="product of two basis elements")
    p.add_argument("left", help="matrix literal, e.g. '2,0,0;1,0,2;0,0,0'")
    p.add_argument("right", help="matrix literal")
    p.add_argument("--show-euler", action="store_true",
                   help="print each matching class with its composite graph")
    add_common(p, need_n=False, need_d=False, outputs=("text", "json", "dot"))
    p.set_defaults(func=_cmd_multiply, operands=("left", "right"))

    p = sub.add_parser("centre", help="class-sum expansions")
    p.add_argument("--shape", default=None,
                   help="partition literal, e.g. '3,1'; restrict to one class sum")
    add_common(p)
    p.set_defaults(func=_cmd_centre, capped=True)

    p = sub.add_parser("idempotents", help="primitive central idempotents")
    p.add_argument("--shape", default=None,
                   help="partition literal; restrict to one idempotent")
    add_common(p)
    p.set_defaults(func=_cmd_idempotents, capped=True)

    p = sub.add_parser("character-table", help="symmetric group character table")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--output", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_character_table, n=None)

    p = sub.add_parser("verify", help="run the invariant suite at (n, d)")
    add_common(p)
    p.set_defaults(func=_cmd_verify, capped=True)

    p = sub.add_parser("graph", help="DOT rendering of an index matrix")
    p.add_argument("matrix", help="matrix literal")
    add_common(p, need_n=False, need_d=False, outputs=("text", "json", "dot"))
    p.set_defaults(func=_cmd_graph, operands=("matrix",))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        _check_inputs(args)
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
