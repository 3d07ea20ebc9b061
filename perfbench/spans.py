"""Per-layer tracing from outside the package.

Wrappers are installed on the module globals that callers look up, so a
call from `approx_degree` to `build_lp`, or from `SymPolynomial.evaluate`
to `eval_msym`, goes through the wrapper exactly as a call from the
benchmark does.  Each wrapped call records a span (name, start, end,
parent) in memory; nothing is written until the run ends.  A layer's self
time is its spans' durations minus the parts covered by child spans.

Hooks record only while the tracer is enabled, which the benchmark limits
to the timed calls of a traced pass, so its own output checks never count
toward a layer.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

# The modules that do measurable work; `budget`, `__init__` and `__main__`
# do none and get no metrics.
LAYERS = (
    "properties",
    "sympoly",
    "degreelp",
    "lp",
    "oracle",
    "ypoly",
    "symmetrize",
    "rangexfer",
    "andor",
    "polyio",
    "cli",
)


def _bits(value: Fraction) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def _after_solve(tracer: "Tracer", result, args) -> None:
    if result.x is not None:
        tracer.maximum("lp.solution_bits_max", max((_bits(v) for v in result.x), default=0))


def _after_build_lp(tracer: "Tracer", result, args) -> None:
    tracer.maximum("degreelp.lp_rows_max", len(result.program.lhs))
    tracer.maximum("degreelp.lp_cols_max", result.program.num_vars)


def _after_enumerate_classes(tracer: "Tracer", result, args) -> None:
    tracer.add("properties.classes", len(result))


def _after_verify(tracer: "Tracer", result, args) -> None:
    tracer.add("oracle.points_checked", len(result.table))


def _after_evaluate(tracer: "Tracer", result, args) -> None:
    tracer.maximum("ypoly.terms_max", len(args[0].terms))


def _after_transfer(tracer: "Tracer", result, args) -> None:
    tracer.add("rangexfer.unchecked", int(result.status == "unchecked"))


# (module, attribute, span name, counter hook).  The span name is
# "<layer>.<operation>"; the layer is the module the code lives in.
HOOKS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("properties", "enumerate_classes", "properties.enumerate_classes", _after_enumerate_classes),
    ("properties", "property_from_dict", "properties.property_from_dict", None),
    ("sympoly", "eval_msym", "sympoly.eval_msym", None),
    ("sympoly", "msym_to_zpoly", "sympoly.msym_to_zpoly", None),
    ("sympoly", "symmetrize_variables", "sympoly.symmetrize_variables", None),
    ("sympoly", "SymPolynomial.evaluate", "sympoly.evaluate", None),
    ("degreelp", "approx_degree", "degreelp.approx_degree", None),
    ("degreelp", "build_lp", "degreelp.build_lp", _after_build_lp),
    ("degreelp", "solve_lp", "degreelp.solve_lp", None),
    ("lp", "solve", "lp.solve", _after_solve),
    ("oracle", "verify_approximation", "oracle.verify_approximation", _after_verify),
    ("ypoly", "YPolynomial.evaluate", "ypoly.evaluate", _after_evaluate),
    ("symmetrize", "symmetrize", "symmetrize.symmetrize", None),
    ("symmetrize", "desymmetrize", "symmetrize.desymmetrize", None),
    ("symmetrize", "average_oracle", "symmetrize.average_oracle", None),
    ("rangexfer", "transfer_approximation", "rangexfer.transfer_approximation", _after_transfer),
    ("rangexfer", "extend", "rangexfer.extend", None),
    ("andor", "substitute", "andor.substitute", None),
    ("polyio", "dump_polynomial", "polyio.roundtrip", None),
    ("polyio", "load_polynomial", "polyio.roundtrip", None),
    ("cli", "main", "cli.main", None),
)

# Function-level metrics, "<span name>.self_s" or "<span name>.calls".
SPAN_METRICS = (
    "lp.solve.self_s",
    "lp.solve.calls",
    "degreelp.build_lp.self_s",
    "properties.enumerate_classes.self_s",
    "properties.enumerate_classes.calls",
    "sympoly.eval_msym.self_s",
    "sympoly.eval_msym.calls",
    "oracle.verify_approximation.self_s",
    "ypoly.evaluate.self_s",
    "ypoly.evaluate.calls",
    "symmetrize.symmetrize.self_s",
    "symmetrize.desymmetrize.self_s",
    "symmetrize.average_oracle.self_s",
    "rangexfer.transfer_approximation.self_s",
    "andor.substitute.self_s",
    "polyio.roundtrip.self_s",
    "cli.main.self_s",
)

COUNTERS = (
    "lp.solution_bits_max",
    "degreelp.lp_rows_max",
    "degreelp.lp_cols_max",
    "properties.classes",
    "oracle.points_checked",
    "ypoly.terms_max",
    "rangexfer.unchecked",
    "cli.stdout_bytes",
)


class MissingHookError(Exception):
    """A hook target is gone from the package, so its layer cannot be
    measured; the names are listed rather than reported as zero."""

    def __init__(self, missing: list[str]):
        super().__init__("hook targets missing: " + ", ".join(missing))
        self.missing = missing


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: dict[str, int] = {name: 0 for name in COUNTERS}
        self.enabled = False
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def add(self, name: str, value: int) -> None:
        self.counters[name] += value

    def maximum(self, name: str, value: int) -> None:
        self.counters[name] = max(self.counters[name], value)

    def wrap(self, name: str, fn: Callable, after: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, 0.0, 0.0, parent))
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                after(self, result, args)
            return result

        return wrapper

    def install(self, package) -> None:
        """Wrap every hook target, rebinding each module global (in any
        loaded symdeg module) that refers to the original object."""
        modules = [
            mod
            for key, mod in sys.modules.items()
            if mod is not None and (key == package.__name__ or key.startswith(package.__name__ + "."))
        ]
        missing = []
        resolved = []
        for module_name, attr, span_name, after in HOOKS:
            module = sys.modules.get(f"{package.__name__}.{module_name}")
            owner = module
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            target = getattr(owner, leaf, None)
            if module is None or owner is None or not callable(target):
                missing.append(f"{module_name}.{attr}")
            else:
                resolved.append((owner, leaf, target, span_name, after, bool(path)))
        if missing:
            raise MissingHookError(missing)
        for owner, leaf, target, span_name, after, is_method in resolved:
            wrapper = self.wrap(span_name, target, after)
            self._originals.append((owner, leaf, target))
            setattr(owner, leaf, wrapper)
            if is_method:
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is target:
                        self._originals.append((mod, key, target))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        """Put back every object that install() replaced."""
        for owner, key, original in reversed(self._originals):
            setattr(owner, key, original)
        self._originals.clear()

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def metrics(self, wall_s: float, untraced_wall_s: float) -> dict[str, float]:
        """Every per-layer metric of one traced pass."""
        self_times = self.self_times()
        totals: dict[str, float] = defaultdict(int)
        by_layer = {layer: 0.0 for layer in LAYERS}
        for (name, _, _, _), own in zip(self.spans, self_times):
            totals[f"{name}.self_s"] += own
            totals[f"{name}.calls"] += 1
            by_layer[name.split(".", 1)[0]] += own
        out: dict[str, float] = {name: totals.get(name, 0) for name in SPAN_METRICS}
        out.update(self.counters)
        for layer, own in by_layer.items():
            out[f"{layer}.self_s"] = own
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - sum(by_layer.values())
        out["trace.spans"] = len(self.spans)
        out["trace.overhead_ratio"] = wall_s / untraced_wall_s
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, handle)
