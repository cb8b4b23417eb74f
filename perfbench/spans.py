"""Spans and counts at the program's layer boundaries, taken from outside.

The tracer wraps every module binding through which one layer reaches
another's public function (for example ``cluster_data`` is bound by name in
``clusters``, ``folding`` and ``hull``; ``FieldContext.valuation`` and
``FieldContext.mul`` are methods on the class).  Each call records a span:
name, start, end and the span that was open when it began.  Spans live in
flat arrays while the run lasts, are written out when it ends, and every
binding is put back when the tracer is removed.  No program file changes.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

# (module, function) for each public layer function; the function is
# wrapped in every schottkyfold module that binds it, as span "module.function".
LAYER_FUNCTIONS = [
    ("projline", "compose"),
    ("projline", "apply"),
    ("projline", "classify"),
    ("clusters", "cluster_data"),
    ("clusters", "pair_up"),
    ("hull", "reduced_convex_hull"),
    ("folding", "run_algorithm"),
    ("folding", "select_target"),
    ("folding", "find_fold_exponent"),
    ("folding", "compute_I"),
    ("folding", "apply_folding"),
    ("oracle", "schottky_audit"),
    ("cli", "parse_problem"),
    ("cli", "run"),
    ("cli", "render_report"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("i")
        self._stack: list[int] = []
        self.words_checked = 0
        self.report_bytes = 0
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span for the benchmark's own code."""
        idx = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name_of, on_result=None):
        """``fn`` recording a span per call; ``name_of(args)`` names it."""
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(name_of(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every binding of every layer function."""
        import schottkyfold.cli  # noqa: F401  (bindings in cli are wrapped too)
        from schottkyfold.valfield import FieldContext, FieldKind

        modules = [m for name, m in sys.modules.items() if name == "schottkyfold" or name.startswith("schottkyfold.")]
        hooks = {"oracle.schottky_audit": self._count_words, "cli.render_report": self._count_bytes}
        for module, attr in LAYER_FUNCTIONS:
            name = f"{module}.{attr}"
            original = getattr(sys.modules[f"schottkyfold.{module}"], attr)
            nid = self.name_id(name)
            wrapper = self._wrap(original, lambda args, nid=nid: nid, hooks.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapper)
        # one valuation span per field flavour: rational, split, ramified
        flavour = {k: self.name_id("valfield.valuation." + k.value.rsplit("_", 1)[-1]) for k in FieldKind}
        self._set(FieldContext, "valuation", self._wrap(FieldContext.valuation, lambda args: flavour[args[0].kind]))
        mul = self.name_id("valfield.mul")
        self._set(FieldContext, "mul", self._wrap(FieldContext.mul, lambda args: mul))

    def remove(self) -> None:
        """Put every wrapped binding back and check that it is the original."""
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        for owner, attr, value in self._restore:
            if getattr(owner, attr) is not value:
                raise RuntimeError(f"binding {attr} was not restored")
        self._restore.clear()

    def _count_words(self, result) -> None:
        self.words_checked += result.words_checked

    def _count_bytes(self, text) -> None:
        self.report_bytes += len(text.encode("utf-8"))

    # -- results -------------------------------------------------------------

    def write(self, path: str) -> None:
        """All spans as gzip'd CSV: id, name, start_s, end_s, parent id."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i},{names[self.name[i]]},{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},{self.parent[i]}\n")

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds;
        the same keyed "name<parent name" for work seen from its caller."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child[par] += self.end[i] - self.start[i]
        stats: dict[str, dict[str, float]] = {}
        for i in range(n):
            name = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            s = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["total_s"] += dur
            s["self_s"] += dur - child[i]
            par = self.parent[i]
            if par >= 0:
                key = f"{name}<{self.names[self.name[par]]}"
                s2 = stats.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                s2["calls"] += 1
                s2["total_s"] += dur
                s2["self_s"] += dur - child[i]
        return stats


def layer_metrics(tracer: Tracer, st: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, by name, as (value, unit); ``st`` is
    ``tracer.aggregate()``."""

    def get(name: str, key: str = "calls") -> float:
        return st.get(name, {}).get(key, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out: dict[str, tuple[float, str]] = {}
    for short in ("rational", "split", "ramified"):
        name = f"valfield.valuation.{short}"
        out[f"{name}.calls"] = (get(name), "count")
        out[f"{name}.self_s"] = (get(name, "self_s"), "s")
        out[f"{name}.us_per_call"] = (ratio(get(name, "self_s") * 1e6, get(name)), "us")
    out["valfield.mul.calls"] = (get("valfield.mul"), "count")
    out["valfield.mul.self_s"] = (get("valfield.mul", "self_s"), "s")
    for fn in ("compose", "apply", "classify"):
        out[f"projline.{fn}.calls"] = (get(f"projline.{fn}"), "count")
        out[f"projline.{fn}.self_s"] = (get(f"projline.{fn}", "self_s"), "s")
    for fn in ("cluster_data", "pair_up"):
        out[f"clusters.{fn}.calls"] = (get(f"clusters.{fn}"), "count")
        out[f"clusters.{fn}.self_s"] = (get(f"clusters.{fn}", "self_s"), "s")
    passes = get("clusters.pair_up<folding.run_algorithm")
    folds = get("folding.apply_folding<folding.run_algorithm")
    out["clusters.builds_per_pass"] = (ratio(get("clusters.cluster_data"), passes), "ratio")
    out["hull.reduced_convex_hull.calls"] = (get("hull.reduced_convex_hull"), "count")
    out["hull.reduced_convex_hull.self_s"] = (get("hull.reduced_convex_hull", "self_s"), "s")
    out["folding.passes"] = (passes, "count")
    out["folding.folds"] = (folds, "count")
    out["folding.pass_ms"] = (ratio(get("folding.run_algorithm", "total_s") * 1e3, passes), "ms")
    for fn in ("select_target", "find_fold_exponent"):
        out[f"folding.{fn}.calls"] = (get(f"folding.{fn}"), "count")
        out[f"folding.{fn}.self_s"] = (get(f"folding.{fn}", "self_s"), "s")
    out["folding.compute_I.calls"] = (get("folding.compute_I"), "count")
    out["folding.apply_folding.calls"] = (get("folding.apply_folding"), "count")
    out["folding.fold_hit_ratio"] = (ratio(folds, get("folding.find_fold_exponent")), "ratio")
    audit_s = get("oracle.schottky_audit", "total_s")
    words = tracer.words_checked
    out["oracle.words_checked"] = (words, "count")
    out["oracle.words_per_s"] = (ratio(words, audit_s), "1/s")
    out["oracle.composes_per_word"] = (ratio(get("projline.compose<oracle.schottky_audit"), words), "ratio")
    out["oracle.schottky_audit.self_s"] = (get("oracle.schottky_audit", "self_s"), "s")
    for fn in ("parse_problem", "run", "render_report"):
        out[f"cli.{fn}.self_s"] = (get(f"cli.{fn}", "self_s"), "s")
    out["cli.report_bytes"] = (tracer.report_bytes, "bytes")
    return out


def self_time_shares(st: dict) -> dict[str, float]:
    """Shares of the program's self time: per layer, per valuation flavour,
    and for field multiplication under Moebius compose."""
    whole = sum(v["self_s"] for k, v in st.items() if "<" not in k and not k.startswith("bench."))
    out: dict[str, float] = {}
    for name, v in st.items():
        if "<" in name or name.startswith("bench."):
            continue
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + v["self_s"] / whole
        if name.startswith("valfield.valuation."):
            out[name] = v["self_s"] / whole
    out["valfield.mul<projline.compose"] = st.get("valfield.mul<projline.compose", {}).get("self_s", 0.0) / whole
    return dict(sorted(out.items()))
