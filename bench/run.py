"""Benchmark of the treeshape CLI workflows: ``matrix`` and ``atlas``.

    python3 bench/run.py --workload matrix --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  Each
workload generates its inputs from ``--seed``, then repeats one pass (a fixed
list of CLI commands, run in-process through ``treeshape.cli.main``) for about
``--seconds`` seconds and checks every pass's outputs.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it runs one untraced and
one traced pass at one worker and reports per-layer metrics from spans
recorded around calls into the package (see ``tracing.py``).  The last line of
standard output is one JSON object; the exit code is 1 if a correctness gate
failed and 2 if the package cannot be found.  ``--smoke`` shrinks every input
for the benchmark's own tests.  See README.md in this directory.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
FIXTURES = BENCH / "fixtures"
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 5
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "TREESHAPE_THREADS")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def invoke(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; returns (exit code, captured stderr)."""
    from treeshape import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


@dataclass
class Pass:
    wall_s: float
    attempted: int
    failed: int
    hashes: dict[str, str]
    errors: list[str] = field(default_factory=list)


class Workload:
    """Inputs, one pass of CLI commands, and the gates on its outputs."""

    name = ""
    threads = 1  # workers used by the timed passes
    unit = ""  # what one pass produces, for the throughput line
    cost_name = ""  # what result_cost means on this workload

    def __init__(self, work: Path, seed: int) -> None:
        self.work, self.seed = work, seed
        self.inputs = work / "inputs"

    def setup_code(self) -> str:
        """Python that loads this workload's inputs through the library."""
        raise NotImplementedError

    def commands(self, out: Path, threads: int) -> list[list]:
        raise NotImplementedError

    def items(self) -> int:
        raise NotImplementedError

    def count_failures(self, code: int, stderr: str) -> tuple[int, int]:
        """(ops attempted, ops failed) of one command."""
        return 1, int(code != 0)

    def check(self, out: Path) -> list[str]:
        raise NotImplementedError

    def result_cost(self, out: Path) -> float:
        raise NotImplementedError

    def run_pass(self, out: Path, threads: int, tracer: tracing.Tracer | None = None) -> Pass:
        """Run the commands, timed (and traced, if a tracer is given), then
        check their outputs untraced."""
        if out.exists():
            shutil.rmtree(out)
        out.mkdir(parents=True)
        attempted = failed = 0
        errors = []
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            for argv in self.commands(out, threads):
                try:
                    code, stderr = invoke(argv)
                except Exception as exc:  # a crash is a failed op, not a benchmark abort
                    code, stderr = 1, f"{type(exc).__name__}: {exc}"
                a, f = self.count_failures(code, stderr)
                attempted, failed = attempted + a, failed + f
                if code != 0 or f:
                    errors.append(f"{argv[0]} exited {code}: {stderr.strip()[:300]}")
            wall = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        errors += self.check(out)
        hashes = {p.name: sha256(p) for p in sorted(out.iterdir())}
        return Pass(wall, attempted, failed, hashes, errors)


def _read_csv_matrix(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text(encoding="utf-8").splitlines()
    labels = lines[0].split(",")
    values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return labels, values


class Matrix(Workload):
    name = "matrix"
    threads = 2
    unit = "pairs"
    cost_name = "mean_distance"

    def __init__(self, work: Path, seed: int, smoke: bool) -> None:
        super().__init__(work, seed)
        self.m = 4 if smoke else corpus.MATRIX_TREES
        self.extra = ["--n-main", "50", "--n-lat", "10"] if smoke else []
        corpus.write_corpus(corpus.matrix_corpus(seed, self.m), self.inputs)

    def setup_code(self) -> str:
        return f"from treeshape.tree_model import load_collection; load_collection({str(self.inputs)!r})"

    def commands(self, out: Path, threads: int) -> list[list]:
        return [["matrix", self.inputs, "--threads", threads, "--out", out / "distances.csv", *self.extra]]

    def items(self) -> int:
        return self.m * (self.m - 1) // 2

    def count_failures(self, code: int, stderr: str) -> tuple[int, int]:
        failed = sum(1 for line in stderr.splitlines() if line.startswith("pair ("))
        return self.items(), self.items() if code != 0 else failed

    def check(self, out: Path) -> list[str]:
        path = out / "distances.csv"
        if not path.is_file():
            return ["no distance matrix written"]
        labels, d = _read_csv_matrix(path)
        errors = []
        if d.shape != (self.m, self.m) or len(labels) != self.m:
            return [f"matrix shape {d.shape} for {self.m} trees"]
        if not np.all(np.isfinite(d)):
            errors.append("matrix has non-finite entries")
        if not np.array_equal(d, d.T):
            errors.append("matrix is not symmetric")
        if np.any(np.diag(d) != 0.0):
            errors.append("matrix diagonal is not zero")
        return errors

    def result_cost(self, out: Path) -> float:
        _, d = _read_csv_matrix(out / "distances.csv")
        return float(d[~np.eye(self.m, dtype=bool)].mean())


class Atlas(Workload):
    """Fit an atlas, then synthesize from it and from the fixtures."""

    name = "atlas"
    unit = "trees"
    cost_name = "objective"

    def __init__(self, work: Path, seed: int, smoke: bool) -> None:
        super().__init__(work, seed)
        counts = (1, 2, 1) if smoke else corpus.ATLAS_LATERALS
        self.m = len(counts)
        self.extra = (["--n-main", "50", "--n-lat", "10", "--max-iter", "1"] if smoke
                      else ["--n-main", "50", "--n-lat", "20", "--step", "1.0", "--max-iter", "4"])
        corpus.write_corpus(corpus.atlas_corpus(seed, counts), self.inputs)
        self.model = FIXTURES / "model.json"
        self.distances = FIXTURES / "distances.csv"
        self.n_json, self.n_svg, self.n_modes = (4, 2, 3) if smoke else (100, 40, 7)
        n_predict = 2 if smoke else 8
        rng = np.random.default_rng([seed, 3])
        training = np.array(json.loads((FIXTURES / "params.json").read_text(encoding="utf-8"))["training"])
        rows = training[np.arange(n_predict) % len(training)]
        scale = [corpus.stratified(rng, 0.95, 1.05, n_predict) for _ in range(rows.shape[1])]
        self.params = rows * np.column_stack(scale)
        self.linkage = ["single", "complete", "average"][seed % 3]

    def setup_code(self) -> str:
        return (
            "from treeshape.tree_model import load_collection; "
            "from treeshape.statistics import RegressionModel; "
            "from treeshape.metric import DistanceMatrix; "
            f"load_collection({str(self.inputs)!r}); RegressionModel.load({str(self.model)!r}); "
            f"DistanceMatrix.load({str(self.distances)!r})"
        )

    def commands(self, out: Path, threads: int) -> list[list]:
        atlas = out / "atlas.json"
        cmds = [
            ["atlas", self.inputs, "--threads", threads, "--out", atlas, *self.extra],
            ["sample", atlas, "--n", self.n_json, "--seed", self.seed, "--out", out / "samples.json"],
            ["sample", atlas, "--n", self.n_svg, "--seed", self.seed, "--out", out / "samples.svg"],
        ]
        for ext in ("json", "svg"):
            cmds.append(["modes", atlas, "--mode", "0",
                         f"--alpha-range=-2:2:{self.n_modes}", "--out", out / f"modes.{ext}"])
        for i, p in enumerate(self.params):
            values = ",".join(repr(float(v)) for v in p)
            cmds.append(["regress-predict", self.model, "--params", values,
                         "--out", out / f"predicted-{i:02d}.json"])
            cmds.append(["render", out / f"predicted-{i:02d}.json", "--out", out / f"predicted-{i:02d}.svg"])
        for ext in ("json", "svg"):
            cmds.append(["cluster", self.distances, "--linkage", self.linkage, "--k", "3",
                         "--out", out / f"dendrogram.{ext}"])
        return cmds

    def items(self) -> int:
        """Trees synthesized per pass."""
        return self.n_json + self.n_svg + 2 * self.n_modes + 2 * len(self.params)

    def check(self, out: Path) -> list[str]:
        path = out / "atlas.json"
        if not path.is_file():
            return ["no atlas written"]
        data = json.loads(path.read_text(encoding="utf-8"))
        ev = np.array(data["eigenvalues"], dtype=float)
        modes = np.array(data["modes"], dtype=float).reshape(len(ev), -1)
        retained = int(data["retained"])
        errors = []
        if not (np.all(np.isfinite(ev)) and np.all(ev >= 0.0) and np.all(np.diff(ev) <= 0.0)):
            errors.append("eigenvalues are not finite, nonnegative and descending")
        ortho = float(np.max(np.abs(modes @ modes.T - np.eye(len(ev))))) if len(ev) else 0.0
        if not ortho <= 1e-8:
            errors.append(f"modes deviate from orthonormal by {ortho:.3g}")
        covered = float(np.cumsum(ev)[retained - 1] / ev.sum()) if retained else 0.0
        if not covered > 0.99:
            errors.append(f"retained modes cover {covered:.4f} of variance, not > 0.99")
        return errors + self._check_synthesis(out)

    @staticmethod
    def _check_synthesis(out: Path) -> list[str]:
        """Every SVG parses as XML; every tree file and dendrogram reloads."""
        from treeshape.clustering import Dendrogram
        from treeshape.tree_model import load_collection, load_root

        errors = []
        for path in sorted(out.iterdir()):
            try:
                if path.suffix == ".svg":
                    ET.parse(path)
                elif path.name.startswith("dendrogram"):
                    Dendrogram.load(path)
                elif path.name.startswith("predicted"):
                    load_root(path)
                elif path.name != "atlas.json":
                    load_collection(path)
            except Exception as exc:  # any reload failure fails the gate
                errors.append(f"{path.name} does not reload: {type(exc).__name__}: {exc}")
        return errors

    def result_cost(self, out: Path) -> float:
        data = json.loads((out / "atlas.json").read_text(encoding="utf-8"))
        return (self.m - 1) * float(np.sum(data["eigenvalues"]))


WORKLOADS = {w.name: w for w in (Matrix, Atlas)}


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "loadavg_start": _loadavg(),
    }


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def measure_setup(workload: Workload) -> list[float]:
    """Wall time of fresh interpreters that import the CLI and load the inputs."""
    code = f"import treeshape.cli; {workload.setup_code()}"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return times


def peak_rss_mb(workers: int) -> float:
    """Own peak RSS plus ``workers`` times the largest child's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * child if workers > 1 else 0)) / 1024.0


def timed_passes(workload: Workload, seconds: float) -> list[Pass]:
    """A warm-up pass, then passes until another would end after ``seconds``.

    The first pass of a process runs about 20 % slower than later ones, so it
    is checked but left out of the timing.  At least one pass is timed.
    """
    start = time.perf_counter()
    passes = [workload.run_pass(workload.work / "out", workload.threads)]
    while len(passes) < 2 or (time.perf_counter() - start
                              + statistics.median(p.wall_s for p in passes[1:]) <= seconds):
        passes.append(workload.run_pass(workload.work / "out", workload.threads))
    return passes


def consistency_errors(passes: list[Pass]) -> list[str]:
    errors = []
    for i, p in enumerate(passes[1:], 1):
        if p.hashes != passes[0].hashes:
            changed = sorted(k for k in p.hashes.keys() | passes[0].hashes.keys()
                             if p.hashes.get(k) != passes[0].hashes.get(k))
            errors.append(f"pass {i} outputs differ from pass 0: {', '.join(changed[:5])}")
    return errors


def _result_cost(workload: Workload) -> float:
    try:
        return workload.result_cost(workload.work / "out")
    except (OSError, ValueError, KeyError):  # missing or broken output; gates report it
        return math.nan


def run_untraced(workload: Workload, seconds: float) -> tuple[dict, dict]:
    setup = measure_setup(workload)
    passes = timed_passes(workload, seconds)
    walls = [p.wall_s for p in passes[1:]]
    wall = statistics.median(walls)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "result_cost": (_result_cost(workload), "cost"),
        "peak_rss_mb": (peak_rss_mb(workload.threads), "MB"),
    }
    report = {
        "timed_passes": len(walls),
        "warm_up_wall_s": passes[0].wall_s,
        "pass_wall_s": walls,
        "setup_runs_s": setup,
        workload.cost_name: metrics["result_cost"][0],
        f"{workload.unit}_per_s": workload.items() / wall,
        "errors": [e for p in passes for e in p.errors] + consistency_errors(passes),
    }
    return metrics, _with_counts(report, passes)


def run_traced(workload: Workload) -> tuple[dict, dict]:
    """A warm-up pass at the workload's worker count, then one untraced and
    one traced pass at one worker; all three must write the same bytes."""
    warm = workload.run_pass(workload.work / "out-warm-up", workload.threads)
    untraced = workload.run_pass(workload.work / "out-untraced", 1)
    tracer = tracing.Tracer()
    traced = workload.run_pass(workload.work / "out-traced", 1, tracer)
    passes = [warm, untraced, traced]
    spans = workload.work / "spans.csv"
    tracer.write(spans)
    layer = tracer.summary()
    metrics = {name: (layer[name], _layer_unit(name)) for name in tracing.metric_names()}
    report = {
        "untraced_wall_s": untraced.wall_s,
        "traced_wall_s": traced.wall_s,
        "trace_overhead": traced.wall_s / untraced.wall_s - 1.0,
        "spans": len(tracer.span_start),
        "spans_file": str(spans.relative_to(ROOT)),
        "missing_functions": tracer.missing,
        "errors": [e for p in passes for e in p.errors] + consistency_errors(passes),
    }
    return metrics, _with_counts(report, passes)


def _layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def _with_counts(report: dict, passes: list[Pass]) -> dict:
    report["attempted"] = sum(p.attempted for p in passes)
    report["failed"] = sum(p.failed for p in passes)
    report["output_sha256"] = passes[0].hashes
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)
    if not (SRC / "treeshape" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC}/treeshape", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = environment()
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if work.exists():
        shutil.rmtree(work)
    workload = WORKLOADS[args.workload](work, args.seed, args.smoke)
    if args.trace:
        metrics, report = run_traced(workload)
    else:
        metrics, report = run_untraced(workload, args.seconds)
    env["loadavg_end"] = _loadavg()
    correct = not report["errors"] and report["failed"] == 0 and all(
        math.isfinite(v) for v, _ in metrics.values())
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    (work / "result.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "correct": correct, "environment": env,
        "report": report, "metrics": reported,
    }, indent=2) + "\n", encoding="utf-8")

    print(f"environment: {json.dumps(env)}")
    for key, value in report.items():
        if key not in ("output_sha256", "errors"):
            print(f"{args.workload} {key}: {value}")
    for error in report["errors"]:
        print(f"GATE FAILED: {error}")
    if not args.trace:
        for key, (value, unit) in metrics.items():
            print(f"{args.workload} {key} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": reported,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
