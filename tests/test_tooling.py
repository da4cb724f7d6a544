"""Checks on the source tree itself and on the names the benchmark relies on."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("demo", ["01_linearization.py", "02_autodiff.py", "04_beam_search.py",
                                  "05_importers.py"])
def test_demo_runs(demo):
    """Each fast demo runs to exit code 0 in its own process, with the package
    on ``PYTHONPATH``.  ``03_train_and_evaluate.py`` is left out: it trains a
    model for about 80 s, and the criterion-5 test already covers training
    followed by beam-4 evaluation."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
