"""Checks on the source tree itself and on the names the benchmark relies on."""

import ast
import importlib.util
from pathlib import Path

import pointerparse
from pointerparse import cli, decoding, training

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(pointerparse.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    """``python -O`` strips ``assert``, so no invariant may rest on one."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_benchmark_tracer_finds_every_name_it_patches():
    """``perfbench/tracing.instrument`` patches functions by module and
    attribute name; renaming or moving one must fail here, not only in a
    traced benchmark run.  Leaving the block restores every original."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = (cli.beam_search, training.greedy_batch, training.make_batch)
    with tracing.instrument(tracing.Tracer()):
        assert cli.beam_search is not originals[0]
    assert (cli.beam_search, training.greedy_batch, training.make_batch) == originals
    assert cli.beam_search is decoding.beam_search
