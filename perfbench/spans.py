"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public functions of each enlargekit layer from outside
the library.  A name bound elsewhere by ``from .x import y`` is rebound
in every enlargekit module that holds it, so calls through ``experiments``
or ``cli`` are seen too.  Each span keeps its name, start, end and
parent until the run ends; a layer's self time is its spans' durations
minus those of their direct children.

A wrapped name that the library no longer has, or whose module it no
longer has, is reported as absent (value ``None``), never as zero time, so a refactor that bypasses a
wrapper cannot read as a saving.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

PACKAGE = "enlargekit"

# span name -> (module, attribute) pairs it wraps; "Class.method" wraps a method
TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "cli": (("cli", "main"),),
    "cli.build_parser": (("cli", "build_parser"),),
    "cli.report_write": (("cli", "_write_report"), ("cli", "_write_battery_csv")),
    "experiments": (("experiments", "run_bridge_demo"), ("experiments", "run_enlargement_demo"),
                    ("experiments", "run_levy_demo")),
    "paths.simulate_brownian": (("paths", "simulate_brownian"),),
    "paths.simulate_compound_poisson": (("paths", "simulate_compound_poisson"),),
    "integrands.construct": (("integrands", "parse_integrand"), ("integrands", "jeulin_yor")),
    "integrands.running_mean": (("integrands", "running_mean"),),
    "enlargement.realize_X": (("enlargement", "realize_X"),),
    "enlargement.drift_compensator": (("enlargement", "drift_compensator"),),
    "enlargement.compensate_brownian": (("enlargement", "compensate_brownian"),),
    "enlargement.abs_drift_integral_paths": (("enlargement", "abs_drift_integral_paths"),),
    "enlargement.levy_bridge_compensator": (("enlargement", "levy_bridge_compensator"),),
    "enlargement.additivity_check": (("enlargement", "DecomposedProcess.__post_init__"),),
    "mgtests.battery_update": (("mgtests", "IncrementRegressionAccumulator.update"),),
    "mgtests.qv_update": (("mgtests", "QVAccumulator.update"),),
    "mgtests.columns_at": (("mgtests", "columns_at"),),
    "classifier.classify": (("classifier", "classify"),),
    "finitelab.instance_build": (("finitelab", "random_instance"), ("finitelab", "enlargement_setup"),
                                 ("finitelab", "random_adapted_martingale")),
    "finitelab.absolute_continuity": (("finitelab", "check_absolute_continuity"),),
    "finitelab.likelihood_check": (("finitelab", "likelihood_is_decoupled_martingale"),),
    "finitelab.discrete_girsanov": (("finitelab", "discrete_girsanov"),),
    "finitelab.jacod": (("finitelab", "jacod_discrete_checks"),),
}

# driver spans whose self time is reported as <name>.self_s, not <name>.s
DRIVERS = ("cli", "experiments")
# spans whose call counts are reported as <name>.calls
CALL_COUNTS = ("paths.simulate_brownian", "paths.simulate_compound_poisson",
               "integrands.running_mean", "enlargement.additivity_check",
               "mgtests.battery_update", "classifier.classify")
PATH_LAYER = ("paths.simulate_brownian", "paths.simulate_compound_poisson")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1   # index of the enclosing span, -1 for a root


class Tracer:
    """Records spans and a few computed counts while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []       # "module.attribute" names not found
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        modules = {}
        for name in sorted({m for pairs in TARGETS.values() for m, _ in pairs}):
            try:
                modules[name] = importlib.import_module(f"{PACKAGE}.{name}")
            except ImportError:
                modules[name] = None
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if (n == PACKAGE or n.startswith(PACKAGE + ".")) and m is not None]
        for span, pairs in TARGETS.items():
            for mod_name, attr in pairs:
                owner, _, leaf = attr.rpartition(".")
                holder = modules[mod_name]
                if owner and holder is not None:
                    holder = getattr(holder, owner, None)
                original = getattr(holder, leaf, None) if holder is not None else None
                if original is None:
                    self.absent.append(f"{mod_name}.{attr}")
                    continue
                wrapped = self._wrap(span, f"{mod_name}.{attr}", original)
                if owner:
                    self._rebind(holder, leaf, original, wrapped)
                    continue
                for ns in namespaces:   # every `from .x import y` binding too
                    if ns.__dict__.get(leaf) is original:
                        self._rebind(ns, leaf, original, wrapped)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._restore):
            setattr(holder, name, original)
        self._restore.clear()

    def _rebind(self, holder, name, original, wrapped) -> None:
        self._restore.append((holder, name, original))
        setattr(holder, name, wrapped)

    def _wrap(self, span_name: str, attr: str, fn):
        clock = time.perf_counter
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = Span(span_name, 0.0, parent=stack[-1] if stack else -1)
            spans.append(span)
            stack.append(idx)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            counts[attr] += 1
            if span_name == "paths.simulate_brownian":
                n_paths, n_nodes = result.values.shape
                counts["paths.normals"] += n_paths * (n_nodes - 1)
            elif span_name == "classifier.classify":
                counts["classifier.rungs_used"] += max(result.jy.rungs_used, result.l2.rungs_used)
                counts["classifier.decided"] += result.verdict != "UNDECIDED"
            elif span_name.startswith("enlargement.") and not (
                span.parent >= 0 and spans[span.parent].name.startswith("enlargement.")
            ):
                counts["enlargement.out_bytes"] += _new_matrix_bytes(result, args, kwargs)
            return result

        return wrapper

    # -- accounting --------------------------------------------------------

    def mark(self) -> int:
        """Starts a new accounting interval: clears the counts and returns
        the span position to pass to :meth:`layer_times`."""
        self.counts.clear()
        return len(self.spans)

    def layer_times(self, first: int) -> tuple[dict, dict, Counter]:
        """Self and total seconds per span name since ``first``, and counts."""
        spans = self.spans[first:]
        child = defaultdict(float)
        for s in spans:
            if s.parent >= first:
                child[s.parent] += s.end - s.start
        self_s, total_s = defaultdict(float), defaultdict(float)
        for i, s in enumerate(spans, start=first):
            self_s[s.name] += s.end - s.start - child[i]
            if s.parent < first or self.spans[s.parent].name != s.name:  # not nested in itself
                total_s[s.name] += s.end - s.start
        counts = Counter(self.counts)
        counts["experiments.blocks"] = sum(
            1 for s in spans
            if s.name in PATH_LAYER and s.parent >= first and self.spans[s.parent].name == "experiments"
        )
        return dict(self_s), dict(total_s), counts


def _members(obj) -> list:
    """The object itself, or the field values of a dataclass instance."""
    return list(vars(obj).values()) if hasattr(obj, "__dataclass_fields__") else [obj]


def _new_matrix_bytes(result, args, kwargs) -> int:
    """Bytes of 2-D arrays in a layer's result that were not passed in."""
    inputs = {id(m) for a in (*args, *kwargs.values()) for m in (a, *_members(a))}
    return sum(a.nbytes for a in _members(result)
               if getattr(a, "ndim", 0) == 2 and id(a) not in inputs)


def layer_metrics(tracer: Tracer, self_s: dict, counts: Counter) -> dict[str, float | None]:
    """Per-layer metrics of one traced iteration; ``None`` marks an absent layer."""
    missing = {span for span, pairs in TARGETS.items()
               if any(f"{m}.{a}" in tracer.absent for m, a in pairs)}

    def value(span, v):
        return None if span in missing else v

    out: dict[str, float | None] = {}
    for span in TARGETS:
        key = f"{span}.self_s" if span in DRIVERS else f"{span}.s"
        out[key] = value(span, self_s.get(span, 0.0))
    for span in CALL_COUNTS:
        out[f"{span}.calls"] = value(span, sum(counts[f"{m}.{a}"] for m, a in TARGETS[span]))
    blocks = counts["experiments.blocks"]
    out["paths.normals"] = value("paths.simulate_brownian", counts["paths.normals"])
    out["experiments.blocks"] = None if missing & {"experiments", *PATH_LAYER} else blocks
    out["finitelab.instances"] = value("finitelab.instance_build",
                                       counts["finitelab.enlargement_setup"])
    calls = out["classifier.classify.calls"]
    out["classifier.rungs_used"] = value("classifier.classify", counts["classifier.rungs_used"])
    out["classifier.decided_ratio"] = value(
        "classifier.classify", counts["classifier.decided"] / calls if calls else 0.0)
    out_mb = counts["enlargement.out_bytes"] / 1e6 / blocks if blocks else 0.0
    out["enlargement.out_mb"] = None if any(s.startswith("enlargement.") for s in missing) else out_mb
    return out
