"""Frozen report digests: the pipeline's answers, pinned byte for byte.

Each digest is the sha256 of ``analysis_report(result)`` followed by the
rendered default diagnostics of the same result.  The matrix crosses the
generator corpus (plain and recursion-heavy shapes) and the bench
SUITE/RECURSION_SUITE profiles with and without the summary cache, both
``context_mode`` settings and the returns extension.
Every cell runs one warm pipeline over its programs in order, so later
programs also exercise whatever state the pipeline keeps between runs.
The report holds no transform output, so the bench-profile cells marked
``transform`` also run the transformation and add the transformed program
and its substitution, fold and prune tables to the digest.

``generate_program`` iterates sets, so the *text* it produces for a seed
depends on string hashing: on ``PYTHONHASHSEED`` and on the interpreter's
hash algorithm (``sys.hash_info.algorithm``: siphash24 before Python 3.11,
siphash13 from 3.11).  The generator-corpus cells are therefore computed
in one subprocess with ``PYTHONHASHSEED=0`` and compared against the table
recorded for the running algorithm.  The bench profiles do not depend on
string hashing and run in-process; the SUITE exit-values cell also runs
under two hash seeds, because its report once printed each exit-value
table in set order.

A mismatch names its cell and programs.  An intended precision change is a
reviewed fixture update, regenerated under each hash algorithm (for
example with Python 3.10 and with 3.11 or later)::

    PYTHONPATH=src python tests/properties/test_report_digests.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import CompilationPipeline
from repro.bench.generator import GeneratorConfig, generate_program
from repro.bench.suite import RECURSION_SUITE, SUITE, build_benchmark
from repro.core.config import ICPConfig
from repro.core.report import analysis_report
from repro.diag.engine import DiagOptions, run_diagnostics
from repro.lang.pretty import pretty_program

FIXTURE = Path(__file__).with_name("report_digests.json")

#: Recursion-heavy generator shape (mirrors the soundness fuzzer's corpus).
RECURSION_HEAVY = GeneratorConfig(allow_recursion=True, n_procs=6, p_call=0.40)

#: Generator-corpus cells: config overrides and ``(label, shape, seeds)``
#: runs, analyzed in order through one pipeline per cell.
CORPUS_CELLS = {
    "serial": ({}, [("seed", None, range(40))]),
    "serial_recursive": ({}, [("recursive seed", RECURSION_HEAVY, range(25))]),
    "jobs_with_cache": (
        {"cache": True},
        [("seed", None, range(25)),
         ("recursive seed", RECURSION_HEAVY, range(15))],
    ),
    "value_contexts_serial": (
        {"context_mode": "value-contexts"},
        [("recursive seed", RECURSION_HEAVY, range(25))],
    ),
    "returns_extension": (
        {"propagate_returns": True, "propagate_exit_values": True},
        [("seed", None, range(25))],
    ),
}

#: Bench-profile cells: the profile table, config overrides and whether the
#: run includes the transformation (scale 1).
SUITE_CELLS = {
    "standard_suite": (SUITE, {}, False),
    "standard_suite_value_contexts": (
        SUITE, {"context_mode": "value-contexts"}, False,
    ),
    "recursion_suite": (RECURSION_SUITE, {}, False),
    "recursion_suite_value_contexts": (
        RECURSION_SUITE, {"context_mode": "value-contexts"}, False,
    ),
    "standard_suite_transform": (SUITE, {}, True),
    "standard_suite_transform_jobs_with_cache": (
        SUITE, {"cache": True}, True,
    ),
    "recursion_suite_transform_exit_values": (
        RECURSION_SUITE, {"propagate_exit_values": True}, True,
    ),
    "standard_suite_transform_exit_values": (
        SUITE, {"propagate_exit_values": True}, True,
    ),
    "recursion_suite_transform_value_contexts": (
        RECURSION_SUITE, {"context_mode": "value-contexts"}, True,
    ),
}


def digest(pipeline, program, run_transform=False):
    """sha256 of the analysis report plus the rendered default diagnostics.

    With ``run_transform`` the transformed program and its per-procedure
    substitution, fold and prune counts follow.
    """
    result = pipeline.run(program, run_transform=run_transform)
    options = DiagOptions.from_config(ICPConfig())
    text = analysis_report(result) + run_diagnostics(result, options).render()
    if run_transform:
        transform = result.transform
        text += pretty_program(transform.program)
        text += "".join(
            f"{proc} {transform.substitutions[proc]} {transform.folds[proc]} "
            f"{transform.pruned_branches[proc]}\n"
            for proc in transform.substitutions
        )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def corpus_digests():
    """Digests of every generator-corpus cell (hash-seed dependent)."""
    table = {}
    for cell, (overrides, runs) in CORPUS_CELLS.items():
        pipeline = CompilationPipeline(ICPConfig.from_dict(overrides))
        table[cell] = {
            f"{label} {seed}": digest(pipeline, generate_program(seed, shape))
            for label, shape, seeds in runs
            for seed in seeds
        }
    return table


def suite_digests(cell):
    profiles, overrides, run_transform = SUITE_CELLS[cell]
    pipeline = CompilationPipeline(ICPConfig.from_dict(overrides))
    return {
        name: digest(pipeline, build_benchmark(profile, 1), run_transform)
        for name, profile in profiles.items()
    }


def _in_subprocess(hash_seed, *args):
    """Run this file with ``args`` under ``PYTHONHASHSEED=hash_seed``."""
    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, __file__, *args],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


def _corpus_in_subprocess():
    """Run :func:`corpus_digests` under ``PYTHONHASHSEED=0``."""
    return _in_subprocess(0, "--corpus")


def _assert_matches(cell, actual, expected):
    assert list(actual) == list(expected), f"{cell}: program list changed"
    changed = [key for key in expected if actual[key] != expected[key]]
    assert not changed, f"{cell}: report digests changed for {changed}"


@pytest.fixture(scope="module")
def corpus():
    """(recorded, computed) corpus tables for this interpreter's hashing."""
    recorded = json.loads(FIXTURE.read_text())["corpus"]
    algorithm = sys.hash_info.algorithm
    if algorithm not in recorded:
        pytest.skip(
            f"corpus digests are recorded for {sorted(recorded)} string "
            f"hashing, not {algorithm}"
        )
    return recorded[algorithm], _corpus_in_subprocess()


def _assert_corpus_cell(corpus, cell):
    recorded, computed = corpus
    _assert_matches(cell, computed[cell], recorded[cell])


def _assert_suite_cell(cell):
    recorded = json.loads(FIXTURE.read_text())["suites"][cell]
    _assert_matches(cell, suite_digests(cell), recorded)


class TestFuzzerCorpusDigests:
    def test_serial(self, corpus):
        _assert_corpus_cell(corpus, "serial")

    def test_serial_recursive(self, corpus):
        _assert_corpus_cell(corpus, "serial_recursive")

    def test_jobs_with_cache(self, corpus):
        _assert_corpus_cell(corpus, "jobs_with_cache")

    def test_value_contexts_serial(self, corpus):
        _assert_corpus_cell(corpus, "value_contexts_serial")

    def test_returns_extension(self, corpus):
        _assert_corpus_cell(corpus, "returns_extension")


class TestBenchProfilesDigests:
    def test_standard_suite(self):
        _assert_suite_cell("standard_suite")

    def test_standard_suite_value_contexts(self):
        _assert_suite_cell("standard_suite_value_contexts")

    def test_recursion_suite(self):
        _assert_suite_cell("recursion_suite")

    def test_recursion_suite_value_contexts(self):
        _assert_suite_cell("recursion_suite_value_contexts")

    def test_standard_suite_transform(self):
        _assert_suite_cell("standard_suite_transform")

    def test_standard_suite_transform_jobs_with_cache(self):
        _assert_suite_cell("standard_suite_transform_jobs_with_cache")

    def test_recursion_suite_transform_exit_values(self):
        _assert_suite_cell("recursion_suite_transform_exit_values")

    def test_recursion_suite_transform_value_contexts(self):
        _assert_suite_cell("recursion_suite_transform_value_contexts")

    def test_standard_suite_transform_exit_values(self):
        _assert_suite_cell("standard_suite_transform_exit_values")

    def test_exit_values_cell_ignores_the_hash_seed(self):
        cell = "standard_suite_transform_exit_values"
        recorded = json.loads(FIXTURE.read_text())["suites"][cell]
        for hash_seed in (1, 2):
            _assert_matches(
                f"{cell} under PYTHONHASHSEED={hash_seed}",
                _in_subprocess(hash_seed, "--suite", cell),
                recorded,
            )


def _write_fixture():
    """Record the suites and this interpreter's corpus table.

    Corpus tables recorded under other hash algorithms are kept.
    """
    corpus = {}
    if FIXTURE.exists():
        corpus = json.loads(FIXTURE.read_text())["corpus"]
    corpus[sys.hash_info.algorithm] = _corpus_in_subprocess()
    table = {
        "corpus": dict(sorted(corpus.items())),
        "suites": {cell: suite_digests(cell) for cell in SUITE_CELLS},
    }
    FIXTURE.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--corpus"]:
        json.dump(corpus_digests(), sys.stdout)
    elif sys.argv[1:2] == ["--suite"] and len(sys.argv) == 3:
        json.dump(suite_digests(sys.argv[2]), sys.stdout)
    elif sys.argv[1:] == ["--write"]:
        _write_fixture()
    else:
        sys.exit(f"usage: {sys.argv[0]} --write | --corpus | --suite CELL")
