"""The console workflows as a user runs them: ``python(*CLI, *args)`` runs ``treeshape *args`` in a
fresh interpreter where ``import scipy`` fails as it does where scipy is not installed.  Each peak
RSS comes from a fresh parent that runs one command: ``RUSAGE_CHILDREN`` keeps its largest child."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treeshape
from treeshape import load_collection

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import corpus  # noqa: E402

ENV = {**os.environ, "PYTHONPATH": str(Path(treeshape.__file__).parents[1])}
CLI = ("-c", "import sys; sys.modules['scipy'] = None; "
             "from treeshape.cli import main; sys.exit(main(sys.argv[1:]))")
TIMEOUT = 300  # seconds; a hung command fails its own test, not the whole run
MEASURE = (f"import resource, subprocess, sys; subprocess.run(sys.argv[1:], check=True, timeout={TIMEOUT}, "
           "stdout=subprocess.DEVNULL); print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
SMALL = ("--n-main", 30, "--n-lat", 10)
MODEL = ROOT / "bench" / "fixtures" / "model.json"


def python(*args, code=0, timeout=TIMEOUT):
    """``python *args`` in a fresh interpreter, which must exit with ``code``."""
    run = subprocess.run([sys.executable, *map(str, args)], env=ENV, capture_output=True, text=True,
                         timeout=timeout)
    assert run.returncode == code, run.stderr
    return run


def peak_rss_kb(*args):
    return int(python("-c", MEASURE, sys.executable, *CLI, *args, timeout=2 * TIMEOUT).stdout)


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    """atlas.json, and corpus/: four trees for registration, the pool and the Karcher descent."""
    out = tmp_path_factory.mktemp("console")
    (out / "atlas.json").write_text(json.dumps(json.loads(MODEL.read_text())["atlas"]))
    corpus.write_corpus(corpus.matrix_corpus(1, 4), out / "corpus")
    return out


@pytest.fixture(scope="module")
def predicted(out):
    python(*CLI, "regress-predict", MODEL, "--params", "1.0,0.3,0.05", "--out", out / "p.json")
    return out / "p.json"


@pytest.fixture(scope="module")
def sample_peaks(out):
    """Peak RSS of ``sample`` at 30 and 3 000 trees; the second run writes s3000.json."""
    return {n: peak_rss_kb("sample", out / "atlas.json", "--n", n, "--out", out / f"s{n}.json")
            for n in (30, 3000)}


def test_render_and_modes_draw(out, predicted):
    python(*CLI, "render", predicted, "--out", out / "p.svg")
    python(*CLI, "modes", out / "atlas.json", "--mode", 0, "--alpha-range=-2:2:5", "--out", out / "m.svg")
    # render picks the format by extension: a .json --out is the same root file again
    python(*CLI, "render", predicted, "--out", out / "p-again.json")
    assert (out / "p-again.json").read_bytes() == predicted.read_bytes()


def test_json_outputs_share_one_layout(out, predicted, sample_peaks):
    python(*CLI, "sample", out / "atlas.json", "--n", 5, "--seed", 3, "--out", out / "s.json")
    python(*CLI, "cluster", MODEL.with_name("distances.csv"), "--linkage", "average", "--k", 3,
           "--out", out / "d.json")
    for path in (predicted, out / "d.json", out / "s.json", out / "s3000.json"):
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path


def test_sample_peak_rss_does_not_grow_with_n(out, sample_peaks):
    assert abs(sample_peaks[3000] - sample_peaks[30]) < 40 * 1024, sample_peaks
    assert len(load_collection(out / "s3000.json")) == 3000


def test_geodesic_peak_rss_grows_little_with_steps(out):
    # geodesic rebuilds its trees srvf.SYNTH_CHUNK at a time
    peaks = {steps: peak_rss_kb("geodesic", out / "corpus" / "m01.json", out / "corpus" / "m03.json",
                                "--steps", steps, "--out", out / f"geo{steps}.json") for steps in (10, 1000)}
    assert peaks[1000] - peaks[10] < 50 * 1024, peaks
    assert len(load_collection(out / "geo1000.json")) == 1000


def test_matrix_and_atlas_are_the_same_at_any_worker_count(out):
    # atlas keeps one pool for the whole Karcher descent
    for command, extra, suffix in (("matrix", (), "csv"), ("atlas", ("--max-iter", 2), "json")):
        for threads in (1, 2):
            python(*CLI, command, out / "corpus", *extra, *SMALL, "--threads", threads,
                   "--out", out / f"{command}{threads}.{suffix}")
        assert (out / f"{command}1.{suffix}").read_bytes() == (out / f"{command}2.{suffix}").read_bytes()


def test_distance_is_zero_to_itself_and_ignores_rigid_motion(out):
    a, b, moved = out / "corpus" / "m01.json", out / "corpus" / "m03.json", out / "m03-turned.json"
    # geodesic prints a tree's distance to itself as distance does: 0
    run = python(*CLI, "geodesic", a, a, *SMALL, "--out", out / "g.json")
    assert any(line.endswith("distance 0") for line in run.stdout.splitlines()), run.stdout
    c, s = math.cos(0.7), math.sin(0.7)
    tree = json.loads(b.read_text())
    for branch, key in [(tree, "main")] + [(lateral, "points") for lateral in tree["laterals"]]:
        branch[key] = [[c * x - s * y + 3, s * x + c * y - 1] for x, y in branch[key]]
    moved.write_text(json.dumps(tree))
    for other in (b, moved):
        python(*CLI, "distance", a, other, *SMALL, "--out", out / f"d-{other.name}")
    d = [json.loads((out / f"d-{other.name}").read_text())["distance"] for other in (b, moved)]
    assert abs(d[0] - d[1]) <= 1e-9 * max(d), d


def test_n_main_above_the_dp_ceiling_is_a_usage_error(out):
    run = python(*CLI, "matrix", out / "corpus", "--n-main", 1460, "--out", out / "ceiling.csv", code=2)
    assert "argument --n-main: must be at most 1459" in run.stderr, run.stderr


def test_bad_input_ends_in_one_error_line(out):
    # a number too large for a float; a closed lateral that resampling to 2 points collapses
    huge, loop = out / "huge.json", out / "loop.json"
    huge.write_text(json.dumps({"main": [[0, 0], [0, 10**400]]}))
    lateral = {"t": 0.5, "points": [[0, -5], [1, -5], [1, -6], [0, -5]]}
    loop.write_text(json.dumps({"main": [[0, 0], [0, -10]], "laterals": [lateral]}))
    for fragment, *args in (("", "render", huge, "--out", out / "huge.svg"),
                            ("resampling to 2 points collapses", "distance", loop, loop, "--n-lat", 2)):
        run = python(*CLI, *args, code=1)
        lines = run.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and fragment in lines[0], run.stderr
        assert "Traceback" not in run.stderr, run.stderr
