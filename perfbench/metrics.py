"""Names and units of every metric the benchmark reports.

Kept apart from the code that measures them so that run.py can print and
validate results without importing the package under test.
"""

# job_s and setup_s are CPU seconds of the child process, rescaled to a
# nominal host speed (see reference.py).
END_TO_END = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Printed and recorded beside them but not gated: the times as measured,
# which move with the load of other guests on a shared VM, and the
# factor they were rescaled by.
RAW = {"job_cpu_s": "s", "setup_cpu_s": "s", "job_wall_s": "s", "setup_wall_s": "s", "host_factor": "1"}

# Printed and recorded with the end-to-end metrics but not gated: they
# mean something on `products` only, where a job has 288 operations.
OP_LATENCY = {"op_p50_ms": "ms", "op_p95_ms": "ms"}

# The twelve checks of ``schuralg verify``, in suite order.
CHECK_NAMES = (
    "dimension-law", "pair-roundtrip", "identity-neutral", "oracle-equivalence",
    "structure-constants", "content-margins", "centrality", "row-sum-law",
    "action-convention", "idempotents", "characters", "associativity",
)


def size_label(check: str, n: int, d: int) -> str:
    """The character check depends on d alone and is called with d only."""
    return f"d{d}" if check == "characters" else f"n{n}d{d}"


# The sizes the verify workload runs its suites at.
VERIFY_SIZES = ((3, 3), (2, 6))
CLI_RUNS = ("cli.verify.n3d3", "cli.verify.n2d6", "cli.idempotents.n3d6", "cli.dim.n2d8")

# Per-layer metric -> unit, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "oracle.find_product_mismatch.s": "s",
    "oracle.pairs_checked": "count",
    "oracle.matmul_madds": "count",
    "oracle.operator_stack_bytes": "B",
    "oracle.multiply_via_oracle.s": "s",
    "oracle.dense_operator.calls": "count",
    "multiplication.multiply.calls": "count",
    "multiplication.multiply.s": "s",
    "multiplication.euler_classes.calls": "count",
    "multiplication.euler_classes.s": "s",
    "multiplication.euler_classes.empty_ratio": "1",
    "multiplication.euler_classes.classes": "count",
    "multiplication.basis_product.hits": "count",
    "multiplication.basis_product.misses": "count",
    "multiplication.basis_product.hit_ratio": "1",
    "multiplication.basis_product.cache_entries": "count",
    "multiplication.structure_constant.s": "s",
    "basis.check_matrix.calls": "count",
    "basis.check_matrix.s": "s",
    "basis.SchurElement.init.calls": "count",
    "basis.SchurElement.init.s": "s",
    "basis.apply_basis.calls": "count",
    "basis.apply_basis.s": "s",
    "basis.enumerate_basis.s": "s",
    "basis.enumerate_basis.hits": "count",
    "basis.enumerate_basis.misses": "count",
    "centre.centre_basis_element.calls": "count",
    "centre.centre_basis_element.s": "s",
    "centre.class_coefficient.calls": "count",
    "centre.pair_count.hit_ratio": "1",
    "centre.perms_scanned": "count",
    "centre.primitive_idempotent.s": "s",
    "centre.centre_dimension.s": "s",
    "centre.is_central.s": "s",
    "partitions.permutations_by_type.s": "s",
    "partitions.character.calls": "count",
    "linalg.rational_rank.s": "s",
    "linalg.rank_cells": "count",
    **{
        f"verification.{check}.{size_label(check, n, d)}.s": "s"
        for n, d in VERIFY_SIZES
        for check in CHECK_NAMES
    },
    "formats.element_to_json.s": "s",
    "formats.canonical_json.s": "s",
    "formats.output_bytes": "B",
    **{f"{run}.s": "s" for run in CLI_RUNS},
    "trace_overhead_ratio": "1",
}

# Counts derived from input sizes rather than observed.
COMPUTED = {
    "oracle.pairs_checked": "|B|^2 per completed find_product_mismatch call",
    "oracle.matmul_madds": "sum of |B|^2 * n^(3d) over completed find_product_mismatch calls",
    "oracle.operator_stack_bytes": "8 * |B| * n^(2d) per distinct (n, d) checked",
    "linalg.rank_cells": "sum of rows * columns over rational_rank calls",
    "centre.perms_scanned": "sum over _pair_count cache misses of the class size of the shape",
}
