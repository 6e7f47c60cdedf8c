"""Spans around the package's public functions, recorded from outside it.

`Tracer.install` rebinds every public function of each layer module in the
defining module's globals and in the globals of every `cdga_config` module
that imported it, and wraps `MappingCone.__init__`, `DGModule.verify` and
`ModuleMap.verify`. `Tracer.uninstall` puts the originals back. Nothing in
the package changes on disk, and untraced runs never call `install`.

A span is a name, start, end, parent and job, kept in memory. Counts that
need work (the check_cdga triple counts, cone sizes) are computed after
the wrapped call returns, inside a `trace.count` span, so that work does
not land in any layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter

from reference import triples_in_degree

LAYERS = ("linalg", "algebra", "dgmodule", "poincare", "cone", "quotients",
          "twisted", "products", "sullivan", "io", "cli")

METHODS = (("cone", "MappingCone", "__init__"),
           ("dgmodule", "DGModule", "verify"),
           ("dgmodule", "ModuleMap", "verify"))

COUNT_SPAN = "trace.count"


class Spans:
    """Spans in parallel columns, so a million of them stay small: name id,
    start, end, parent index and job, with -1 for no parent or job."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")

    def __len__(self) -> int:
        return len(self.start)

    def add(self, name: str, start: float, end: float, parent: int, job: int) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(self._ids[name])
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.job.append(job)
        return len(self.start) - 1

    def name_of(self, idx: int) -> str:
        return self.names[self.name[idx]]

    def write(self, path) -> None:
        """JSON lines: first the name table, then one
        `[name, start_us, end_us, parent, job]` per span, times in
        microseconds from the first span."""
        origin = self.start[0] if len(self) else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self)):
                out.write(f"[{self.name[i]}, {round((self.start[i] - origin) * 1e6)}, "
                          f"{round((self.end[i] - origin) * 1e6)}, {self.parent[i]}, "
                          f"{self.job[i]}]\n")


def self_times(spans: Spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = {}
    for idx, parent in enumerate(spans.parent):
        if parent >= 0:
            children.setdefault(parent, []).append(idx)
    start, end = spans.start, spans.end
    out = []
    for idx in range(len(spans)):
        covered, reach = 0.0, start[idx]
        for c in sorted(children.get(idx, ()), key=lambda c: start[c]):
            lo = max(start[c], reach)
            hi = min(end[c], end[idx])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end[idx] - start[idx] - covered)
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans = Spans()
        self.counts: Counter = Counter()
        self.cdga_sizes: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        now = time.perf_counter()
        idx = self.spans.add(name, now, now, parent, self.job)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                count = tracer._open(COUNT_SPAN)
                try:
                    after(tracer, idx, args, result)
                finally:
                    tracer._close(count)
            return result

        return wrapper

    # --- installing --------------------------------------------------------

    def install(self) -> None:
        modules = {m: importlib.import_module(f"cdga_config.{m}") for m in LAYERS}
        everywhere = [mod for key, mod in sys.modules.items()
                      if key == "cdga_config" or key.startswith("cdga_config.")]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, fn, _AFTER.get(name, _after_linalg
                                                          if layer == "linalg" else None))
                for other in everywhere:
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            self._restore.append((other, key, fn))
                            setattr(other, key, wrapper)
        for layer, cls_name, attr in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[attr]
            name = f"{layer}.{cls_name}" + ("" if attr == "__init__" else f".{attr}")
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, _AFTER.get(name)))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # --- summarising -------------------------------------------------------

    def summary(self, jobs: int) -> dict[str, float]:
        """Per-layer metrics as means per job over the traced jobs."""
        selfs = self_times(self.spans)
        by_name: Counter = Counter()
        calls: Counter = Counter()
        for idx, own in enumerate(selfs):
            by_name[self.spans.name_of(idx)] += own
            calls[self.spans.name_of(idx)] += 1

        def self_of(*prefixes: str) -> float:
            return sum(v for k, v in by_name.items()
                       if any(k == p or k.startswith(p + ".") for p in prefixes))

        per_job = {}
        for layer in LAYERS:
            per_job[f"{layer}.self_s"] = self_of(layer)
        for name in ("algebra.check_cdga", "algebra.cohomology", "quotients.quotient_dga",
                     "quotients.ideal_span", "twisted.truncate_cone",
                     "twisted.quotient_by_diagonal", "cone.even_model", "products.product_pd",
                     "products.diagonal_correspondence", "poincare.check_pd",
                     "poincare.shriek_map", "cone.MappingCone", "twisted.build_cxi",
                     "twisted.decide_xi_equivalence", "sullivan.iso_obstruction",
                     "sullivan.s2xs3_table", "sullivan.check_table", "io.load_algebra_data",
                     "io.load_algebra_file", "io.parse_element", "io.write_pd_file", "cli.main"):
            per_job[f"{name}.self_s"] = by_name[name]
        per_job["dgmodule.verify.self_s"] = by_name["dgmodule.DGModule.verify"] + \
            by_name["dgmodule.ModuleMap.verify"]
        per_job["algebra.check_cdga.calls"] = calls["algebra.check_cdga"]
        per_job["sullivan.iso_obstruction.calls"] = calls["sullivan.iso_obstruction"]
        per_job["cli.main.calls"] = calls["cli.main"]
        for key in ("algebra.check_cdga.triples_visited", "algebra.check_cdga.triples_in_degree",
                    "linalg.calls", "linalg.entries", "cone.dim", "cone.mult_nnz",
                    "sullivan.iso_obstruction.exists", "sullivan.iso_obstruction.obstructed",
                    "sullivan.iso_obstruction.unresolved"):
            per_job[key] = self.counts[key]
        out = {k: v / jobs for k, v in per_job.items()}
        visited = self.counts["algebra.check_cdga.triples_visited"]
        out["algebra.check_cdga.useful_ratio"] = (
            self.counts["algebra.check_cdga.triples_in_degree"] / visited if visited else 0.0)
        return out


# --- counts taken after a wrapped call returns -----------------------------


def _after_check_cdga(tracer: Tracer, idx, args, result) -> None:
    algebra = args[0]
    degrees = list(algebra.basis.degrees)
    visited = len(degrees) ** 3
    in_degree = triples_in_degree(degrees, algebra.top_degree)
    tracer.counts["algebra.check_cdga.triples_visited"] += visited
    tracer.counts["algebra.check_cdga.triples_in_degree"] += in_degree
    tracer.cdga_sizes[(len(degrees), visited, in_degree)] += 1


def _after_mapping_cone(tracer: Tracer, idx, args, result) -> None:
    algebra = args[0].algebra
    tracer.counts["cone.dim"] += algebra.dim()
    tracer.counts["cone.mult_nnz"] += len(algebra.mult_entries())


def _after_iso_obstruction(tracer: Tracer, idx, args, result) -> None:
    tracer.counts[f"sullivan.iso_obstruction.{result.verdict}"] += 1


def _after_linalg(tracer: Tracer, idx, args, result) -> None:
    """Entries into linalg from another layer, and the size of what each
    one handed over: rows x cols of a matrix, vectors x ambient dimension,
    or the summed blocks of a complex."""
    parent = tracer.spans.parent[idx]
    if parent >= 0 and tracer.spans.name_of(parent).startswith("linalg."):
        return
    tracer.counts["linalg.calls"] += 1
    tracer.counts["linalg.entries"] += _entries(args)


def _entries(args) -> int:
    if not args:
        return 0
    first, last = args[0], args[-1]
    if hasattr(first, "rows") and hasattr(first, "cols"):
        return first.rows * first.cols
    if isinstance(first, (list, tuple)) and isinstance(last, int):
        return len(first) * last
    if isinstance(last, dict):
        return sum(m.rows * m.cols for m in last.values())
    return 0


_AFTER = {
    "algebra.check_cdga": _after_check_cdga,
    "cone.MappingCone": _after_mapping_cone,
    "sullivan.iso_obstruction": _after_iso_obstruction,
}
