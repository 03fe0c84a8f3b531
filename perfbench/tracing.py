"""Spans around jsrbound's public functions, recorded from outside.

`Tracer.install()` replaces every public function of the eight layer
modules with a timing wrapper, in every ``jsrbound.*`` namespace that
holds it: the package imports with ``from .core import ...``, so
patching ``jsrbound.core`` alone would miss the calls made from
``bounds``.  `Tracer.uninstall()` puts the originals back.

A span is ``[id, parent, name, start, end, attrs]``.  Spans are kept in
memory and written as JSONL at the end of a run.  A span's self time is
its duration minus the durations of its direct children; calls are
single-threaded, so children never overlap.

Generator functions (``core.enumerate_products``) are left unwrapped: a
wrapper would time only the creation of the generator.  Their work is
counted in the self time of the function that consumes them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from collections import defaultdict

LAYERS = ("cli", "core", "bounds", "geometry", "irreducibility",
          "certificates", "families", "oracle")

# r^n * d^2 above this counts as a streamed-size enumeration.  It equals
# the program's materialization limit at the seed commit, but is a
# benchmark constant so that the classification never moves with it.
STREAMED_FLOATS = 1 << 22


def _words(r: int, n_max: int) -> int:
    return sum(r ** n for n in range(1, n_max + 1))


def _stack_count(stack) -> int:
    return int(math.prod(stack.shape[:-2]))


# Counters recorded on a span from the bound arguments and the result.
_COUNTERS = {
    "cli.main": lambda a, res: {"exit": int(res)},
    "core.max_over_products": lambda a, res: {
        "words": a["mset"].r ** a["n"],
        "floats": a["mset"].r ** a["n"] * a["mset"].dim ** 2},
    "core.operator_norms": lambda a, res: {"matrices": _stack_count(a["stack"])},
    "core.spectral_radii": lambda a, res: {"matrices": _stack_count(a["stack"])},
    "bounds.sandwich": lambda a, res: {"words": _words(a["mset"].r,
                                                       a["n_max"])},
    "geometry.sphere_net": lambda a, res: {"points": int(res.shape[0])},
    "geometry.radius_profile": lambda a, res: {
        "points": int(res.shape[0]), "d": int(a["products"].shape[-1])},
    "irreducibility.reach_products": lambda a, res: {
        "kept": int(res.shape[0]),
        "candidates": 1 + _words(a["mset"].r, a["p"])},
    "oracle.brute_force_interval": lambda a, res: {
        "words": _words(a["mset"].r, a["n_max"])},
}


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._error_type = importlib.import_module("jsrbound.errors").JsrError

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        error_type = self._error_type
        counter = _COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, name, 0.0, 0.0,
                    None]
            spans.append(span)
            stack.append(span[0])
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            except error_type as exc:
                span[5] = {"error": type(exc).__name__}
                raise
            finally:
                span[4] = clock()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = counter(bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"jsrbound.{layer}")
                   for layer in LAYERS}
        namespaces = [importlib.import_module("jsrbound"), *modules.values(),
                      importlib.import_module("jsrbound.errors")]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, key, fn))
                            setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, fn in reversed(self._patches):
            setattr(ns, key, fn)
        self._patches.clear()

    def write_jsonl(self, path) -> None:
        """One span per line: [id, parent, name, start, end, counters]."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[list], passes: int) -> dict[str, float]:
    """Per-pass counts and times from the spans of ``passes`` traced passes.

    Span-derived metrics only; ``setup.*`` and ``trace.*`` come from the
    caller.
    """
    children_s: dict[int, float] = defaultdict(float)
    for sid, parent, _, start, end, _ in spans:
        if parent is not None:
            children_s[parent] += end - start
    by_id = {s[0]: s for s in spans}

    def under(span, name: str) -> bool:
        parent = span[1]
        while parent is not None:
            if by_id[parent][2] == name:
                return True
            parent = by_id[parent][1]
        return False

    incl: dict[str, float] = defaultdict(float)
    self_fn: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    sums: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    layer_errors: dict[str, int] = defaultdict(int)
    for span in spans:
        sid, _, name, start, end, attrs = span
        dur = end - start
        own = dur - children_s[sid]
        incl[name] += dur
        self_fn[name] += own
        calls[name] += 1
        layer = name.split(".", 1)[0]
        layer_self[layer] += own
        attrs = attrs or {}
        if "error" in attrs:
            layer_errors[layer] += 1
        if name == "cli.main" and attrs.get("exit", 0) != 0:
            sums["cli.main.errors"] += 1
        elif name == "core.max_over_products":
            size = ("streamed" if attrs["floats"] > STREAMED_FLOATS
                    else "materialized")
            sums["mop.words"] += attrs["words"]
            sums[f"mop.{size}.words"] += attrs["words"]
            sums[f"mop.{size}.s"] += dur
        elif name in ("core.operator_norms", "core.spectral_radii"):
            sums[f"{name}.matrices"] += attrs["matrices"]
        elif name == "geometry.radius_profile":
            sums["rp.points"] += attrs["points"]
            sums[f"rp.d{attrs['d']}.points"] += attrs["points"]
            sums[f"rp.d{attrs['d']}.s"] += dur
            if under(span, "geometry.refine_minimum"):
                sums["rp.refine.points"] += attrs["points"]
        elif name in ("bounds.sandwich", "oracle.brute_force_interval",
                      "geometry.sphere_net"):
            key = "points" if name == "geometry.sphere_net" else "words"
            sums[f"{name}.{key}"] += attrs[key]
        elif name == "irreducibility.reach_products":
            sums["reach.kept"] += attrs["kept"]
            sums["reach.candidates"] += attrs["candidates"]

    total_self = sum(layer_self.values())
    k = 1.0 / passes
    out = {
        "cli.main.calls": calls["cli.main"] * k,
        "cli.main.self_s": self_fn["cli.main"] * k,
        "cli.main.errors": sums["cli.main.errors"] * k,
        "core.parse_matrix_set.s": incl["core.parse_matrix_set"] * k,
        "core.max_over_products.calls": calls["core.max_over_products"] * k,
        "core.max_over_products.words": sums["mop.words"] * k,
        "core.max_over_products.self_s": self_fn["core.max_over_products"] * k,
        "core.product_stack.s": incl["core.product_stack"] * k,
        "core.enum.words_per_s.materialized_size": _ratio(
            sums["mop.materialized.words"], sums["mop.materialized.s"]),
        "core.enum.words_per_s.streamed_size": _ratio(
            sums["mop.streamed.words"], sums["mop.streamed.s"]),
        "bounds.sandwich.words": sums["bounds.sandwich.words"] * k,
        "geometry.sphere_net.points": sums["geometry.sphere_net.points"] * k,
        "geometry.radius_profile.points": sums["rp.points"] * k,
        "geometry.radius_profile.points_per_s.d2": _ratio(
            sums["rp.d2.points"], sums["rp.d2.s"]),
        "geometry.radius_profile.points_per_s.d3": _ratio(
            sums["rp.d3.points"], sums["rp.d3.s"]),
        "geometry.refine_minimum.calls": calls["geometry.refine_minimum"] * k,
        "geometry.refine_minimum.points": sums["rp.refine.points"] * k,
        "geometry.refine_share": _ratio(sums["rp.refine.points"],
                                        sums["rp.points"]),
        "irreducibility.reach_products.kept": sums["reach.kept"] * k,
        "irreducibility.reach_products.candidates":
            sums["reach.candidates"] * k,
        "irreducibility.reach_products.kept_ratio": _ratio(
            sums["reach.kept"], sums["reach.candidates"]),
        "irreducibility.chi_measure.self_s":
            self_fn["irreducibility.chi_measure"] * k,
        "oracle.brute_force_interval.words":
            sums["oracle.brute_force_interval.words"] * k,
    }
    for name in ("core.operator_norms", "core.spectral_radii"):
        out[f"{name}.s"] = incl[name] * k
        out[f"{name}.matrices_per_s"] = _ratio(sums[f"{name}.matrices"],
                                               incl[name])
    for name in ("bounds.sandwich", "bounds.zero_radius_test",
                 "bounds.kronecker_bounds", "geometry.sphere_net",
                 "geometry.radius_profile", "geometry.refine_minimum",
                 "irreducibility.reach_products",
                 "irreducibility.burnside_detail", "certificates.nu_p",
                 "certificates.certified_interval", "certificates.plan_steps",
                 "certificates.protasov_gamma",
                 "families.row_substitution_bound",
                 "families.row_sign_flip_bound",
                 "oracle.brute_force_interval"):
        out[f"{name}.s"] = incl[name] * k
    for layer in LAYERS:
        out[f"{layer}.errors"] = layer_errors[layer] * k
        out[f"{layer}.self_s"] = layer_self[layer] * k
        out[f"{layer}.self_share"] = _ratio(layer_self[layer], total_self)
    return out
