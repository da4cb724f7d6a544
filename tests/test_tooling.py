"""Checks on the source tree itself and on the names the benchmark relies on."""

import ast
import dataclasses
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pointerparse
from pointerparse import cli, decoding, training, training_ops
from pointerparse.model import ModelConfig

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


def test_only_data_calls_linearize():
    """``CorpusExample.target`` is the package's one way to an example's
    target, so no other module linearizes a parse again."""
    callers = {
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "linearize"
             or getattr(node.func, "attr", None) == "linearize")
    }
    assert callers <= {"linearize.py", "data.py"}
    assert "data.py" in callers


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


def test_readme_config_table_lists_every_key_and_default():
    """Each key ``train`` accepts has one row in the README's config table,
    with its default, and the table lists no other key: a setting added or
    removed without its doc line fails here."""
    rows = re.findall(r"^\| `(model|train)\.(\w+)` \| .* \| (.+) \|$",
                      (ROOT / "README.md").read_text(), flags=re.MULTILINE)
    documented = {(section, key): json.loads(default) for section, key, default in rows}
    defaults = {(section, f.name): f.default
                for section, config in (("model", ModelConfig), ("train", training.TrainConfig))
                for f in dataclasses.fields(config)}
    accepted = {("model", key) for key in cli._MODEL_KEYS} | {("train", key) for key in cli._TRAIN_KEYS}
    assert len(rows) == len(documented)
    assert documented == {key: defaults[key] for key in accepted}


def test_readme_states_the_adam_constants():
    found = re.search(r"beta1 (\S+), beta2 (\S+), eps (\S+) and global\s+gradient-norm "
                      r"clipping at (\S+?)\.", (ROOT / "README.md").read_text())
    assert found is not None
    assert tuple(float(v) for v in found.groups()) == (
        training_ops.ADAM_BETA1, training_ops.ADAM_BETA2, training_ops.ADAM_EPS,
        training_ops.CLIP_NORM)


def test_readme_states_the_decode_row_budget():
    found = re.search(r"pads chunks of at most (\d+) decoder\s+rows",
                      (ROOT / "README.md").read_text())
    assert found is not None
    assert int(found[1]) == decoding.DECODE_ROWS
