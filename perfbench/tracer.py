"""Tracing from outside the program: wrap public functions, read caches.

``install`` wraps each function in ``TARGETS`` and rebinds every
module-level name in ``schuralg.*`` that refers to the original, because
``oracle``, ``centre``, ``verification`` and ``cli`` import these names
directly.  No file of the package is changed.

Coarse functions record one span each (name, start, end, parent span).
Hot functions only add to per-name counts and times, so that tracing a
job with hundreds of thousands of calls stays cheap.  Both kinds keep
self time: a call's duration minus the time spent in wrapped calls made
inside it.  Spans stay in memory until the child writes its result.

``layer_metrics`` turns the records and the caches' ``cache_info()`` into
the per-layer metrics listed in BENCHMARK.json.  The counts in
``metrics.COMPUTED`` are derived from input sizes, not observed.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import Counter

from metrics import CHECK_NAMES, PER_LAYER, size_label

SPAN, HOT = "span", "hot"


# (module, attribute, metric name, kind)
TARGETS = (
    ("schuralg.oracle", "find_product_mismatch", "oracle.find_product_mismatch", SPAN),
    ("schuralg.oracle", "multiply_via_oracle", "oracle.multiply_via_oracle", SPAN),
    ("schuralg.oracle", "dense_operator", "oracle.dense_operator", SPAN),
    ("schuralg.multiplication", "multiply", "multiplication.multiply", SPAN),
    ("schuralg.multiplication", "euler_classes", "multiplication.euler_classes", HOT),
    ("schuralg.multiplication", "structure_constant", "multiplication.structure_constant", HOT),
    ("schuralg.basis", "check_matrix", "basis.check_matrix", HOT),
    ("schuralg.basis", "SchurElement.__init__", "basis.SchurElement.init", HOT),
    ("schuralg.basis", "apply_basis", "basis.apply_basis", HOT),
    ("schuralg.basis", "enumerate_basis", "basis.enumerate_basis", HOT),
    ("schuralg.centre", "centre_basis_element", "centre.centre_basis_element", SPAN),
    ("schuralg.centre", "class_coefficient", "centre.class_coefficient", HOT),
    ("schuralg.centre", "primitive_idempotent", "centre.primitive_idempotent", SPAN),
    ("schuralg.centre", "centre_dimension", "centre.centre_dimension", SPAN),
    ("schuralg.centre", "is_central", "centre.is_central", SPAN),
    ("schuralg.partitions", "permutations_by_type", "partitions.permutations_by_type", HOT),
    ("schuralg.partitions", "character", "partitions.character", HOT),
    ("schuralg.linalg", "rational_rank", "linalg.rational_rank", SPAN),
    ("schuralg.formats", "element_to_json", "formats.element_to_json", SPAN),
    ("schuralg.formats", "canonical_json", "formats.canonical_json", SPAN),
) + tuple(
    ("schuralg.verification", "check_" + check.replace("-", "_"), "verification." + check, SPAN)
    for check in CHECK_NAMES
)


class NullTracer:
    """Stands in for the tracer when tracing is off."""

    @contextlib.contextmanager
    def span(self, name: str):
        yield

    def count(self, name: str, amount: int = 1) -> None:
        pass


class Tracer:
    """Records calls into the package; one per traced child process."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        # one [time in wrapped children, enclosing span index] per active call
        self.stack: list[list] = [[0.0, None]]
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.spans: list[list] = []  # [name, start, end, parent span index]
        self.counts: Counter = Counter()
        self.stack_bytes: dict[tuple[int, int], int] = {}  # (n, d) -> operator stack size
        self.pair_count_misses: Counter = Counter()  # shape -> misses
        self.missing: list[str] = []
        self.caches: dict[str, object] = {}
        self.cache_base: dict[str, object] = {}  # cache_info() at install

    def _enter(self, name: str, spanned: bool) -> list:
        outer = self.stack[-1]
        frame = [0.0, outer[1]]
        if spanned:
            frame[1] = len(self.spans)
            self.spans.append([name, 0.0, 0.0, outer[1]])
        self.stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, spanned: bool, start: float, end: float) -> None:
        self.stack.pop()
        elapsed = end - start
        self.stack[-1][0] += elapsed
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += elapsed
        stat[2] += elapsed - frame[0]
        if spanned:
            record = self.spans[frame[1]]
            record[1] = start - self.origin
            record[2] = end - self.origin

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self._enter(name, True)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(name, frame, True, start, time.perf_counter())

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def wrap(self, fn, name, spanned: bool, on_result=None):
        """``name`` is a string or a function of the call's arguments."""
        clock = time.perf_counter
        enter, leave = self._enter, self._exit

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            frame = enter(label, spanned)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(label, frame, spanned, start, clock())
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target and remember the caches read at the end."""
        import schuralg  # noqa: F401  (loads every submodule)

        for label, module_name, attr in (
            ("basis_product", "schuralg.multiplication", "_basis_product"),
            ("pair_count", "schuralg.centre", "_pair_count"),
            ("enumerate_basis", "schuralg.basis", "enumerate_basis"),
        ):
            cache = getattr(importlib.import_module(module_name), attr, None)
            if hasattr(cache, "cache_info"):
                self.caches[label] = cache
                self.cache_base[label] = cache.cache_info()
            else:
                self.missing.append(f"{module_name}.{attr}.cache_info")
        hooks = {
            "multiplication.euler_classes": self._on_euler_classes,
            "oracle.find_product_mismatch": self._on_find_product_mismatch,
            "linalg.rational_rank": self._on_rational_rank,
        }
        for module_name, attr, metric, kind in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, leaf, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            name = metric
            if module_name == "schuralg.verification":
                name = _check_namer(metric)
            wrapped = self.wrap(original, name, kind == SPAN, hooks.get(metric))
            if owner_name:
                setattr(owner, leaf, wrapped)
            else:
                rebind(original, wrapped)
        self._count_pair_count_misses()

    def _count_pair_count_misses(self) -> None:
        """Count cache misses of ``centre._pair_count`` per shape; each miss
        scans every permutation of that cycle type."""
        cache = self.caches.get("pair_count")
        if cache is None:
            return
        misses = self.pair_count_misses

        def counted(shape, top, bottom):
            before = cache.cache_info().misses
            result = cache(shape, top, bottom)
            if cache.cache_info().misses != before:
                misses[shape] += 1
            return result

        rebind(cache, counted)

    def _on_euler_classes(self, args, result) -> None:
        self.counts["euler_classes.empty"] += not result
        self.counts["euler_classes.classes"] += len(result)

    def _on_find_product_mismatch(self, args, result) -> None:
        from schuralg.basis import basis_count

        n, d = args[0], args[1]
        if result is None:
            size = basis_count(n, d)
            self.counts["oracle.pairs_checked"] += size * size
            self.counts["oracle.matmul_madds"] += size * size * n ** (3 * d)
            self.stack_bytes[n, d] = 8 * size * n ** (2 * d)

    def _on_rational_rank(self, args, result) -> None:
        rows = args[0]
        self.counts["linalg.rank_cells"] += len(rows) * (len(rows[0]) if rows else 0)

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except ``trace_overhead_ratio``."""
        from schuralg.partitions import class_size

        out: dict[str, float] = {}
        for metric in PER_LAYER:
            base, _, kind = metric.rpartition(".")
            stat = self.stats.get(base)
            if kind == "s":
                out[metric] = stat[2] if stat else 0.0
            elif kind == "calls":
                out[metric] = stat[0] if stat else 0
        calls = self.stats.get("multiplication.euler_classes", [0])[0]
        out["multiplication.euler_classes.empty_ratio"] = (
            self.counts["euler_classes.empty"] / calls if calls else 0.0
        )
        out["multiplication.euler_classes.classes"] = self.counts["euler_classes.classes"]
        for key in ("oracle.pairs_checked", "oracle.matmul_madds", "linalg.rank_cells",
                    "formats.output_bytes"):
            out[key] = self.counts[key]
        out["oracle.operator_stack_bytes"] = sum(self.stack_bytes.values())
        out["centre.perms_scanned"] = sum(
            misses * class_size(shape) for shape, misses in self.pair_count_misses.items()
        )
        info = self._cache_info("basis_product")
        out["multiplication.basis_product.hits"] = info[0]
        out["multiplication.basis_product.misses"] = info[1]
        out["multiplication.basis_product.hit_ratio"] = _ratio(info)
        out["multiplication.basis_product.cache_entries"] = info[2]
        out["centre.pair_count.hit_ratio"] = _ratio(self._cache_info("pair_count"))
        info = self._cache_info("enumerate_basis")
        out["basis.enumerate_basis.hits"] = info[0]
        out["basis.enumerate_basis.misses"] = info[1]
        return out

    def _cache_info(self, label: str) -> tuple[int, int, int]:
        """(hits, misses) since install, and the current number of entries."""
        if label not in self.caches:
            return (0, 0, 0)
        now, base = self.caches[label].cache_info(), self.cache_base[label]
        return (now.hits - base.hits, now.misses - base.misses, now.currsize)


def _check_namer(metric: str):
    """Name a verification check by the size it is called at: ``(n, d, ...)``
    for most checks, ``(d,)`` for the character check."""
    check = metric.partition(".")[2]

    def name(args) -> str:
        if check == "characters":
            return f"{metric}.{size_label(check, 0, args[0])}"
        return f"{metric}.{size_label(check, args[0], args[1])}"

    return name


def rebind(original, replacement) -> None:
    """Point every module-level name in ``schuralg.*`` at the replacement."""
    for module_name, module in list(sys.modules.items()):
        if module_name != "schuralg" and not module_name.startswith("schuralg."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def _ratio(info: tuple[int, int, int]) -> float:
    hits, misses, _ = info
    return hits / (hits + misses) if hits + misses else 0.0
