"""Spans around calls into treeshape, installed from outside the package.

The tracer wraps chosen functions at every place they are bound (the defining
module, modules that imported them by name, the package namespace), so a call
through any of those names opens a span.  Spans stay in memory as flat lists
and are written out once, after the traced run.  Python resolves module
globals at call time, so calls between functions of one module are caught
too.  Only the calling process is traced: pool workers run unpatched copies,
which is why the traced run uses one worker.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from pathlib import Path

# module -> functions to wrap; "Class.method" wraps a method or classmethod.
WRAPPED = {
    "cli": ["main", "_json_text", "_write_text"],
    "tree_model": [
        "load_root", "load_collection", "save_root", "tree_to_dict",
        "resample_tree", "augment_pair", "augment_collection",
    ],
    "srvf": ["tree_to_srvft", "srvft_to_tree"],
    "registration": [
        "register", "match_laterals", "optimal_rotation", "optimal_reparam_main",
        "_dp_edge_cost", "apply_registration", "preshape_dissimilarity_sq",
        "transform_tree",
    ],
    "metric": ["prepare_pair", "pairwise_matrix", "DistanceMatrix.load", "DistanceMatrix.save"],
    "statistics": [
        "karcher_mean", "fit_atlas", "prepare_collection", "log_map", "exp_map",
        "flatten_srvft", "unflatten_srvft", "_gram_modes", "sample_random",
        "mode_path", "predict", "fit_regression", "Atlas.load", "Atlas.save",
        "RegressionModel.load",
    ],
    "clustering": ["linkage", "cut"],
    "render": ["render_tree", "render_tree_row", "render_dendrogram"],
}

# spans whose inclusive time is reported besides calls and self time
TOTAL_TIME = (
    "cli.main", "metric.pairwise_matrix", "metric.prepare_pair",
    "registration.register", "registration.optimal_reparam_main",
    "statistics.fit_atlas", "statistics.karcher_mean",
    "statistics.sample_random", "srvf.srvft_to_tree",
)

DERIVED = (
    "registration.sweeps",
    "statistics.karcher.iterations",
    "statistics.karcher.halvings",
    "statistics.karcher.medoid_registrations",
)


def span_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns]


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for span in span_names():
        names += [f"{span}.calls", f"{span}.self_s"]
        if span in TOTAL_TIME:
            names.append(f"{span}.total_s")
    return names + list(DERIVED)


class Tracer:
    """Records nested spans: name id, parent index, start and end times."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.sweeps = 0
        self.iterations = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.span_start)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.span_end.append(0.0)
            tracer._stack.append(index)
            tracer.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[index] = clock()
                tracer._stack.pop()
            tracer._observe(name, result)
            return result

        return wrapper

    def _observe(self, name: str, result) -> None:
        if name == "registration.register":
            self.sweeps += len(result.cost_history) - 1
        elif name == "statistics.karcher_mean":
            self.iterations += len(result.objective) - 1

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function that exists; ``missing`` names the rest."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "treeshape" or n.startswith("treeshape.")]
        self.missing = []
        for mod_name, fns in WRAPPED.items():
            module = sys.modules.get(f"treeshape.{mod_name}")
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(module, cls_name, None)
                    desc = vars(cls).get(meth) if cls is not None else None
                    if isinstance(desc, classmethod):
                        wrapper = classmethod(self._wrap(name, desc.__func__))
                    elif callable(desc):
                        wrapper = self._wrap(name, desc)
                    else:
                        self.missing.append(name)
                        continue
                    self._restore.append((cls, meth, desc))
                    setattr(cls, meth, wrapper)
                    continue
                original = getattr(module, fn_name, None)
                if not callable(original):
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    # -- results ---------------------------------------------------------

    def _children(self) -> list[list[int]]:
        children: list[list[int]] = [[] for _ in self.span_start]
        for index, parent in enumerate(self.span_parent):
            if parent >= 0:
                children[parent].append(index)
        return children

    def summary(self) -> dict[str, float]:
        """Per-layer metrics: calls, self and total time, derived counters.

        Self time is a span's duration minus the durations of its direct
        child spans, which are nested inside it and cover disjoint intervals.
        """
        duration = [e - s for s, e in zip(self.span_start, self.span_end)]
        children = self._children()
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for index, name_id in enumerate(self.span_name):
            name = self.names[name_id]
            calls[name] += 1
            total_s[name] += duration[index]
            self_s[name] += duration[index] - sum(duration[c] for c in children[index])
        out: dict[str, float] = {}
        for span in span_names():
            out[f"{span}.calls"] = calls[span]
            out[f"{span}.self_s"] = self_s[span]
            if span in TOTAL_TIME:
                out[f"{span}.total_s"] = total_s[span]
        halvings, medoid = self._karcher_counts(children)
        out["registration.sweeps"] = self.sweeps
        out["statistics.karcher.iterations"] = self.iterations
        out["statistics.karcher.halvings"] = halvings
        out["statistics.karcher.medoid_registrations"] = medoid
        return out

    def _karcher_counts(self, children: list[list[int]]) -> tuple[int, int]:
        """Line-search halvings and medoid registrations of each Karcher run.

        Every candidate mean is built by one direct ``unflatten_srvft`` call,
        so rejected candidates are candidates minus accepted steps.  The
        descent applies every registration it computes to its sample; the
        medoid start only reads their costs, so its registrations are those
        never applied.
        """
        ids = self.name_ids
        karcher = ids.get("statistics.karcher_mean")
        unflatten = ids.get("statistics.unflatten_srvft")
        register = ids.get("registration.register")
        apply = ids.get("registration.apply_registration")
        candidates = medoid = 0
        for index, name_id in enumerate(self.span_name):
            if name_id != karcher:
                continue
            candidates += sum(1 for c in children[index] if self.span_name[c] == unflatten)
            end = self.span_end[index]
            for later in range(index + 1, len(self.span_start)):
                if self.span_start[later] > end:
                    break
                medoid += (self.span_name[later] == register) - (self.span_name[later] == apply)
        return candidates - self.iterations, medoid

    def write(self, path: Path) -> None:
        """Write spans as CSV: name, parent span index, start, end (seconds)."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with path.open("w", encoding="utf-8") as fh:
            fh.write("span,name,parent,start_s,end_s\n")
            for i, (n, p, s, e) in enumerate(zip(
                    self.span_name, self.span_parent, self.span_start, self.span_end)):
                fh.write(f"{i},{self.names[n]},{p},{s - t0:.9f},{e - t0:.9f}\n")
