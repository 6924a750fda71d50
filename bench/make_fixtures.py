"""Regenerate the fixtures of the ``atlas`` workload with the CLI under test.

Run from the repository root:

    PYTHONPATH=src python3 bench/make_fixtures.py

It writes into ``bench/fixtures/``:

- ``model.json``: ``treeshape regress-fit`` of an 8-tree population
  (seed 0) at the CLI defaults;
- ``params.json``: the biological parameters of that population, from which
  the benchmark draws ``regress-predict`` inputs;
- ``distances.csv``: ``treeshape matrix`` of a 24-tree corpus (seed 0).

The commands are deterministic, so a rerun at the same commit rewrites the
same bytes.  Takes a few minutes on two cores.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402

FIXTURES = BENCH / "fixtures"
POPULATION = (1, 2, 3, 3, 3, 3, 2, 3)
MATRIX_TREES = 24


def main() -> int:
    from treeshape import cli
    from treeshape.tree_model import extract_bio_params, load_collection

    FIXTURES.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        population = Path(tmp) / "population"
        corpus.write_corpus(corpus.atlas_corpus(0, POPULATION), population)
        trees = Path(tmp) / "trees"
        corpus.write_corpus(corpus.matrix_corpus(0, MATRIX_TREES), trees)
        for argv in (
            ["regress-fit", str(population), "--threads", "2", "--out", str(FIXTURES / "model.json")],
            ["matrix", str(trees), "--threads", "2", "--out", str(FIXTURES / "distances.csv")],
        ):
            if cli.main(argv) != 0:
                return 1
        params = [list(extract_bio_params(t)) for t in load_collection(population)]
    (FIXTURES / "params.json").write_text(
        json.dumps({"names": list(cli.BIO_PARAM_NAMES), "training": params}, indent=2) + "\n",
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
