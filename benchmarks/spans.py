"""Layer spans recorded from outside the library, and per-layer metrics.

``Tracer.install`` replaces each traced public function of a ``vankampen``
module by a wrapper, both in the module that defines it and in
``pipeline`` and ``cli`` where they imported it; ``uninstall`` puts the
originals back.  A wrapper records a span (layer, name, start, end,
parent) around the call.  Spans stay in memory; a span's self time is its
duration minus its children's durations.  Only entry points are traced,
not the helpers an entry point calls in its own layer, so that a layer's
span holds the layer's whole work; ``laurent_gcd`` is only counted (one
call per Alexander minor), not timed.
"""

from __future__ import annotations

import importlib
import re
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Any, Callable

LAYERS = ("words", "cover", "presentation", "coset", "abelian", "alexander", "curves", "pipeline", "cli")

TRACED = {
    "words": ("braid_action", "parse_braid", "parse_word"),
    "cover": ("lift_monodromy",),
    "presentation": (
        "tietze_simplify", "patch_fiber", "zvk_assemble", "commutant_report",
        "metacyclic_normal_form", "parse_presentation", "format_presentation",
    ),
    "coset": ("enumerate_cosets", "quotient_order"),
    "abelian": ("smith_normal_form", "abelian_invariants"),
    "alexander": ("alexander_polynomial",),
    "curves": (
        "resultant", "exact_div", "divides", "singular_parameters", "verify_node",
        "verify_torus_structure", "intersection_multiplicity_origin", "chart_cubic_factors",
        "cubic_pencil", "nodal_cubic", "parse_polynomial",
    ),
    "pipeline": ("reproduce_paper",),
}
COUNTED = {"alexander": ("laurent_gcd",)}


def _letters_in_images(span: Span) -> int:
    return sum(w.length for w in span.result.images.values())


def _sylvester_entries(span: Span) -> int:
    f, g, var = span.args
    df, dg = f.degree(var), g.degree(var)
    return (df + dg) ** 2 if df > 0 and dg > 0 else 0


# Work done by one call, read from its arguments and result after the round.
WORK: dict[tuple[str, str], Callable[[Span], int]] = {
    ("words", "braid_action"): _letters_in_images,
    ("cover", "lift_monodromy"): _letters_in_images,
    ("presentation", "tietze_simplify"): lambda s: sum(r.length for r in s.args[0].relators),
    ("coset", "enumerate_cosets"): lambda s: getattr(s.result, "count", 0),
    ("abelian", "smith_normal_form"): lambda s: s.args[0].nrows * s.args[0].ncols,
    ("alexander", "alexander_polynomial"): lambda s: s.count,
    ("curves", "resultant"): _sylvester_entries,
}

GROUP = ("group-scaling",)
REPLAY = ("paper-replay",)
RESULTANTS = ("paper-replay", "elimination-scaling")

# name -> (layer, function, "ms" per call or "rate" of work per self second,
# unit, workloads whose passes it sums over)
LAYER_METRICS = {
    "words.braid_action_ms": ("words", "braid_action", "ms", "ms", GROUP),
    "words.image_letters_per_s": ("words", "braid_action", "rate", "letters/s", GROUP),
    "cover.lift_ms": ("cover", "lift_monodromy", "ms", "ms", GROUP),
    "cover.lifted_letters_per_s": ("cover", "lift_monodromy", "rate", "letters/s", GROUP),
    "presentation.tietze_ms": ("presentation", "tietze_simplify", "ms", "ms", GROUP),
    "presentation.relator_letters_per_s": ("presentation", "tietze_simplify", "rate", "letters/s", GROUP),
    "presentation.patch_ms": ("presentation", "patch_fiber", "ms", "ms", REPLAY),
    "coset.enumerate_ms": ("coset", "enumerate_cosets", "ms", "ms", GROUP),
    "coset.cosets_per_s": ("coset", "enumerate_cosets", "rate", "cosets/s", GROUP),
    "abelian.snf_ms": ("abelian", "smith_normal_form", "ms", "ms", GROUP),
    "abelian.entries_per_s": ("abelian", "smith_normal_form", "rate", "entries/s", GROUP),
    "alexander.polynomial_ms": ("alexander", "alexander_polynomial", "ms", "ms", GROUP),
    "alexander.minors_per_s": ("alexander", "alexander_polynomial", "rate", "minors/s", GROUP),
    "curves.resultant_ms": ("curves", "resultant", "ms", "ms", RESULTANTS),
    "curves.exact_div_ms": ("curves", "exact_div", "ms", "ms", RESULTANTS),
    "curves.sylvester_entries_per_s": ("curves", "resultant", "rate", "entries/s", RESULTANTS),
    "curves.singular_parameters_ms": ("curves", "singular_parameters", "ms", "ms", REPLAY),
    "curves.node_check_ms": ("curves", "verify_node", "ms", "ms", REPLAY),
    "pipeline.self_ms": ("pipeline", "reproduce_paper", "ms", "ms", REPLAY),
}
IMPORT_METRICS = {f"import.{m}_ms": m for m in LAYERS}


class Span:
    __slots__ = ("layer", "name", "parent", "op", "start", "end", "children", "count", "args", "result")

    def __init__(self, layer: str, name: str, parent: Span | None, op: int):
        self.layer, self.name, self.parent, self.op = layer, name, parent, op
        self.children = 0.0
        self.count = 0
        self.args: tuple = ()
        self.result: Any = None

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.children

    def record(self, index: dict[int, int]) -> dict:
        return {
            "id": index[id(self)], "parent": index.get(id(self.parent)), "op": self.op,
            "layer": self.layer, "name": self.name,
            "start": self.start, "end": self.end, "self": self.self_time,
        }


class Tracer:
    """Spans of the operations run while installed, grouped by operation."""

    def __init__(self):
        self.stack: list[Span] = []
        self.spans: list[Span] = []
        self.ops = 0
        self._patched: list[tuple[Any, str, Any]] = []

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        keep = (layer, name) in WORK

        def traced(*args, **kwargs):
            span = Span(layer, name, self.stack[-1] if self.stack else None, self.ops)
            self.stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self.stack.pop()
            if keep:
                span.args, span.result = args + tuple(kwargs.values()), result
            self.spans.append(span)
            return result

        return traced

    def _count(self, fn: Callable) -> Callable:
        def counted(*args, **kwargs):
            if self.stack:
                self.stack[-1].count += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        pipeline = importlib.import_module("vankampen.pipeline")
        cli = importlib.import_module("vankampen.cli")
        for layer, names, wrapper in [(l, n, self._wrap) for l, n in TRACED.items()] + [
            (l, n, None) for l, n in COUNTED.items()
        ]:
            module = importlib.import_module(f"vankampen.{layer}")
            for name in names:
                fn = getattr(module, name)
                new = wrapper(layer, name, fn) if wrapper else self._count(fn)
                for where in {module, pipeline, cli}:
                    if getattr(where, name, None) is fn:
                        self._patched.append((where, name, fn))
                        setattr(where, name, new)

    def uninstall(self) -> None:
        for where, name, fn in reversed(self._patched):
            setattr(where, name, fn)
        self._patched.clear()

    def run_op(self, call: Callable[[], Any]) -> tuple[Any, float]:
        """Run one operation under a root span; return (output, wall seconds)."""
        self.ops += 1
        return self._wrap("bench", "op", call)(), self.spans[-1].end - self.spans[-1].start

    def take(self) -> list[Span]:
        """Close the spans recorded so far: settle self times and return them."""
        spans, self.spans = self.spans, []
        for s in spans:
            if s.parent is not None:
                s.parent.children += s.end - s.start
        return spans


class LayerTotals:
    """Calls, self seconds and work per workload and traced function."""

    def __init__(self):
        self.totals: dict[tuple[str, str, str], list] = {}

    def add(self, workload: str, spans: list[Span], factors: dict[int, float]) -> None:
        """Add a pass's closed spans, scaling self times by their operation's factor."""
        for s in spans:
            key = (s.layer, s.name)
            t = self.totals.setdefault((workload, *key), [0, 0.0, 0])
            t[0] += 1
            t[1] += s.self_time * factors[s.op]
            if key in WORK:
                t[2] += WORK[key](s)
            s.args = s.result = None

    def metrics(self) -> dict[str, dict]:
        out = {}
        for name, (layer, fn, kind, unit, workloads) in LAYER_METRICS.items():
            calls, self_s, work = (sum(x) for x in zip(*(self.totals[(w, layer, fn)] for w in workloads)))
            value = 1000 * self_s / calls if kind == "ms" else work / self_s
            out[name] = {"value": value, "unit": unit}
        return out

    def table(self) -> dict[str, dict]:
        return {
            f"{w}/{layer}.{fn}": {"calls": c, "self_s": s, "work": n}
            for (w, layer, fn), (c, s, n) in sorted(self.totals.items())
        }


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|\s+vankampen\.(\w+)\s*$")


def import_times(src: str, probes: int) -> dict[str, dict]:
    """Median self import time per module from ``python -X importtime``."""
    samples: dict[str, list[float]] = {m: [] for m in LAYERS}
    code = f"import sys; sys.path.insert(0, {src!r}); import vankampen.cli"
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            capture_output=True, text=True, timeout=60, check=True,
        )
        for line in proc.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if m and m.group(2) in samples:
                samples[m.group(2)].append(int(m.group(1)) / 1000)
    return {
        name: {"value": statistics.median(samples[module]), "unit": "ms"}
        for name, module in IMPORT_METRICS.items()
    }
