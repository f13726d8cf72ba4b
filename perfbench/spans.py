"""In-memory span recording around the fraclogistic layers.

Spans are recorded from the benchmark's side only: either at the benchmark's
own call sites (:meth:`Tracer.call`, :meth:`Tracer.span`) or by replacing a
module attribute that package code looks up at call time (:data:`HOOKS`).
Nothing inside ``src/`` is edited.  A span's self time is its duration minus
the durations of its child spans; calls are sequential, so children never
overlap.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import math
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

# (module, attribute, span name): names the package resolves at call time, so
# a replacement there sees every call the package makes.  ``solve`` is hooked
# where the CLI and the analysis layer look it up, which records the CLI's
# production solve and verify_run's comparison re-solves.
HOOKS: Tuple[Tuple[str, str, str], ...] = (
    ("fraclogistic.solver", "cq_weights", "quadrature.cq_weights"),
    ("fraclogistic.solver", "ml_grid", "special.ml_grid"),
    ("fraclogistic.solver", "mittag_leffler", "special.mittag_leffler"),
    ("fraclogistic.analysis", "solve", "solver.solve"),
    ("fraclogistic.cli", "solve", "solver.solve"),
    ("fraclogistic.cli", "trajectory_to_csv", "solver.csv_write"),
)

# Layer metrics that need a hook; reported absent when the hook is missing.
_HOOKED_METRICS = {
    "quadrature.cq_weights": (
        "quadrature.cq_weights.calls", "quadrature.cq_weights.self_s",
        "quadrature.cq_weights.weights", "quadrature.cq_weights.fft_points",
        "quadrature.cq_weights.used_ratio", "quadrature.cq_weights.fft_bytes_computed",
    ),
    "special.ml_grid": (
        "special.ml_grid.calls", "special.ml_grid.self_s",
        "special.ml_grid.points", "special.ml_grid.used_ratio",
    ),
    "special.mittag_leffler": ("special.mittag_leffler.calls", "special.mittag_leffler.self_s"),
    "solver.csv_write": ("solver.csv_write.self_s", "solver.csv_bytes"),
}

# complex128 samples: the forward FFT and the round-trip inverse each read
# and write one array of ``points`` values.
_FFT_BYTES_PER_POINT = 2 * 2 * 16


@dataclasses.dataclass
class Span:
    span_id: int
    parent: Optional[int]
    op: Optional[int]
    name: str
    start: float
    end: float = math.nan
    attrs: Dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _solve_attrs(args: tuple, out: Any) -> Dict[str, Any]:
    spec = args[0]
    return {
        "steps": len(out) - 1,
        "allocated": max(1, int(math.floor(spec.t_max / spec.step + 1e-9))),
        "status": out.status.value,
    }


_ANNOTATE: Dict[str, Callable[[tuple, Any], Dict[str, Any]]] = {
    "solver.solve": _solve_attrs,
    "quadrature.cq_weights": lambda a, out: {"weights": int(out.weights.size), "points": int(out.points)},
    "special.ml_grid": lambda a, out: {"points": int(out.size)},
    "solver.csv_write": lambda a, out: {"bytes": len(out.encode("utf-8"))},
    "oracle.pece_solve": lambda a, out: {"steps": len(out) - 1},
    "analysis.verify_run": lambda a, out: {
        "checks": len(out.checks),
        "failed": sum(not c.passed for c in out.checks),
    },
}


class Tracer:
    """Records spans while ``active``; otherwise every wrapper calls straight through."""

    def __init__(self) -> None:
        self.active = False
        self.op: Optional[int] = None
        self.spans: List[Span] = []
        self.missing_hooks: List[str] = []
        self._stack: List[Span] = []
        self._installed: List[Tuple[Any, str, Any]] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Optional[Span]]:
        if not self.active:
            yield None
            return
        parent = self._stack[-1].span_id if self._stack else None
        sp = Span(len(self.spans), parent, self.op, name, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span called ``name`` and annotate it from the result."""
        if not self.active:
            return fn(*args, **kwargs)
        with self.span(name) as sp:
            out = fn(*args, **kwargs)
            annotate = _ANNOTATE.get(name)
            if annotate is not None:
                sp.attrs.update(annotate(args, out))
        return out

    def install(self) -> None:
        """Wrap every name in :data:`HOOKS`; a name that is gone is listed, not fatal."""
        for module_name, attr, span_name in HOOKS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.missing_hooks.append("%s.%s" % (module_name, attr))
                continue

            def wrapper(*args: Any, _fn: Any = original, _name: str = span_name, **kwargs: Any) -> Any:
                return self.call(_name, _fn, *args, **kwargs)

            setattr(module, attr, functools.wraps(original)(wrapper))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def absent_metrics(self) -> List[str]:
        """Metrics that cannot be measured because their hook is missing."""
        names = []
        for module_name, attr, span_name in HOOKS:
            if "%s.%s" % (module_name, attr) in self.missing_hooks:
                names.extend(_HOOKED_METRICS.get(span_name, ()))
        return names


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer metrics of one pass over a workload, from its spans."""
    child_time: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    by_id = {s.span_id: s for s in spans}

    def calls(name: str) -> int:
        return len(by_name[name])

    def self_s(name: str) -> float:
        return sum(s.duration - child_time[s.span_id] for s in by_name[name])

    def total(name: str, key: str) -> int:
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    def parent_steps(name: str) -> int:
        # nodes marched by the solve that asked for this table or grid
        return sum(
            by_id[s.parent].attrs.get("steps", 0)
            for s in by_name[name]
            if s.parent is not None and by_id[s.parent].name == "solver.solve"
        )

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    solves = by_name["solver.solve"]
    production = [
        s for s in solves
        if s.parent is None or by_id[s.parent].name != "analysis.verify_run"
    ]
    march_s = self_s("solver.solve")
    steps = total("solver.solve", "steps")
    weights = total("quadrature.cq_weights", "weights")
    points = total("special.ml_grid", "points")
    pece_s = self_s("oracle.pece_solve")
    pece_steps = total("oracle.pece_solve", "steps")
    verify_ids = {s.span_id for s in by_name["analysis.verify_run"]}
    return {
        "steps_per_s": ratio(
            sum(s.attrs.get("steps", 0) for s in production), sum(s.duration for s in production)
        ),
        "solver.march.self_s": march_s,
        "solver.march.ns_per_step": ratio(march_s, steps, 1e9),
        "solver.steps": steps,
        "solver.steps_allocated": total("solver.solve", "allocated"),
        "solver.blew_up": sum(s.attrs.get("status") == "blew-up" for s in solves),
        "solver.accuracy_failure": sum(s.attrs.get("status") == "accuracy-failure" for s in solves),
        "solver.csv_write.self_s": self_s("solver.csv_write"),
        "solver.csv_read.self_s": self_s("solver.csv_read"),
        "solver.csv_bytes": total("solver.csv_write", "bytes"),
        "quadrature.cq_weights.calls": calls("quadrature.cq_weights"),
        "quadrature.cq_weights.self_s": self_s("quadrature.cq_weights"),
        "quadrature.cq_weights.weights": weights,
        "quadrature.cq_weights.fft_points": total("quadrature.cq_weights", "points"),
        "quadrature.cq_weights.used_ratio": ratio(parent_steps("quadrature.cq_weights"), weights),
        "quadrature.cq_weights.fft_bytes_computed": _FFT_BYTES_PER_POINT
        * total("quadrature.cq_weights", "points"),
        "special.ml_grid.calls": calls("special.ml_grid"),
        "special.ml_grid.self_s": self_s("special.ml_grid"),
        "special.ml_grid.points": points,
        "special.ml_grid.used_ratio": ratio(parent_steps("special.ml_grid"), points),
        "special.mittag_leffler.calls": calls("special.mittag_leffler"),
        "special.mittag_leffler.self_s": self_s("special.mittag_leffler"),
        "analysis.verify_run.calls": calls("analysis.verify_run"),
        "analysis.verify_run.self_s": self_s("analysis.verify_run"),
        "analysis.verify_run.child_solves": sum(s.parent in verify_ids for s in solves),
        "analysis.describe_blowup.self_s": self_s("analysis.describe_blowup"),
        "analysis.checks": total("analysis.verify_run", "checks"),
        "analysis.checks_failed": total("analysis.verify_run", "failed"),
        "oracle.pece_solve.calls": calls("oracle.pece_solve"),
        "oracle.pece_solve.self_s": pece_s,
        "oracle.pece_solve.steps": pece_steps,
        "oracle.pece_solve.ns_per_step": ratio(pece_s, pece_steps, 1e9),
        "oracle.caputo_residual.calls": calls("oracle.caputo_residual"),
        "oracle.caputo_residual.self_s": self_s("oracle.caputo_residual"),
        "cli.solve.calls": calls("cli.solve"),
        "cli.solve.self_s": self_s("cli.solve"),
    }


# Self-time metrics, grouped by package layer, for the traced report.
LAYER_SELF_TIMES: Dict[str, Tuple[str, ...]] = {
    "solver": ("solver.march.self_s", "solver.csv_write.self_s", "solver.csv_read.self_s"),
    "quadrature": ("quadrature.cq_weights.self_s",),
    "special": ("special.ml_grid.self_s", "special.mittag_leffler.self_s"),
    "analysis": ("analysis.verify_run.self_s", "analysis.describe_blowup.self_s"),
    "oracle": ("oracle.pece_solve.self_s", "oracle.caputo_residual.self_s"),
    "cli": ("cli.solve.self_s",),
}
