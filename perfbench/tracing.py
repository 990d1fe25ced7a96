"""Spans and counts around mdsconv's public functions, installed from outside.

The traced run replaces each traced function at every place it is bound:
its own module and every mdsconv module that imported it by name (for
example `convert` imports `puncture` and `is_codeword` from `grs`, and
`cli` imports the plan builders from `convert`).  Field operations are
counted, not timed, on the `FieldSpec` class itself, because `linalg`
binds `f.mul` to a local name inside its loops.

Spans stay in memory as [name, start_ns, end_ns, parent_index] and are
written out by `dump` when the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import time

# Functions timed with a span, by module.
SPAN_TARGETS = {
    "linalg": (
        "rref", "rank", "solve_linear", "right_kernel_basis", "invert",
        "submatrix_cols", "matvec", "vecmat", "matmul", "vandermonde_ext",
    ),
    "grs": ("parity_check", "generator", "encode", "is_codeword", "recover_erasures", "puncture"),
    "convert": (
        "build_merge", "build_split", "merge_convert", "split_convert", "general_convert",
        "run_conversion", "access_report", "verify_plan", "verify_optimal_structure",
    ),
    "oracle": ("mds_exhaustive", "mds_sampled"),
    "plandoc": (
        "save_plan", "load_plan", "plan_to_doc", "plan_from_doc",
        "read_symbol_lines", "write_symbol_lines",
    ),
}
# FieldSpec methods counted per call.
COUNT_TARGETS = ("mul", "inv", "check")


def _program_modules():
    import mdsconv
    from mdsconv import cli, convert, field, grs, linalg, oracle, plandoc

    return {
        "mdsconv": mdsconv, "cli": cli, "convert": convert, "field": field,
        "grs": grs, "linalg": linalg, "oracle": oracle, "plandoc": plandoc,
    }


class Tracer:
    """Installs wrappers, records spans and counts, and takes them out again."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._cells: dict[str, list[int]] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def _count(self, name: str, fn):
        cell = self._cells.setdefault(name, [0])

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def install(self) -> None:
        """Wrap every SPAN_TARGETS binding in mdsconv and count FieldSpec ops."""
        modules = _program_modules()
        wrappers = {}
        for mod_name, names in SPAN_TARGETS.items():
            for name in names:
                fn = getattr(modules[mod_name], name)
                wrappers[id(fn)] = (fn, self._span(f"{mod_name}.{name}", fn))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        cls = modules["field"].FieldSpec
        for name in COUNT_TARGETS:
            fn = vars(cls)[name]
            self._undo.append((cls, name, fn))
            setattr(cls, name, self._count(f"field.{name}", fn))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def counts(self) -> dict[str, int]:
        return {name: cell[0] for name, cell in self._cells.items()}

    def summary(self, start: int = 0, end: int | None = None) -> dict[str, list[int]]:
        """name -> [calls, total_ns, self_ns] over spans[start:end].

        Spans are appended when they open, so the spans of one operation
        form a contiguous index range.
        """
        spans = self.spans
        end = len(spans) if end is None else end
        child = [0] * (end - start)
        for rec in spans[start:end]:
            parent = rec[3]
            if parent >= start:
                child[parent - start] += rec[2] - rec[1]
        out: dict[str, list[int]] = {}
        for offset, rec in enumerate(spans[start:end]):
            dur = rec[2] - rec[1]
            agg = out.setdefault(rec[0], [0, 0, 0])
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - child[offset]
        return out

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "counts": self.counts(), "spans": self.spans}, fh)
