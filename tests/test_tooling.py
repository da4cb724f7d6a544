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
from pointerparse.autodiff import DropoutRng, Tape
from pointerparse.data import default_grammar, generate_synthetic
from pointerparse.model import ModelConfig, PointerGeneratorModel

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


def _tracing():
    """``perfbench/tracing.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_tracer_finds_every_name_it_patches():
    """``perfbench/tracing.instrument`` patches functions by module and
    attribute name; renaming or moving one must fail here, not only in a
    traced benchmark run.  Leaving the block restores every original."""
    tracing = _tracing()
    originals = (cli.beam_search, training.greedy_batch, training.make_batch)
    with tracing.instrument(tracing.Tracer()):
        assert cli.beam_search is not originals[0]
    assert (cli.beam_search, training.greedy_batch, training.make_batch) == originals
    assert cli.beam_search is decoding.beam_search


def test_benchmark_tracer_names_each_attention_by_its_role():
    """A traced training step (d=8, 2 encoder and 3 decoder layers) counts
    one ``model.enc_self_attn`` span per encoder layer and one
    ``model.dec_self_attn`` and ``model.dec_cross_attn`` per decoder layer,
    which the tracer tells apart by the arguments of
    ``MultiHeadAttention.__call__``; and its tape-node count is the tape's."""
    tracing = _tracing()
    examples = generate_synthetic(default_grammar(), 12, seed=4)["train"][:4]
    symtab, src_vocab = training.prepare_corpus(examples)
    config = ModelConfig(vocab_size=symtab.vocab_size, src_vocab_size=src_vocab.size,
                         max_src_len=symtab.max_src_len, d_model=8, n_enc_layers=2,
                         n_enc_heads=2, enc_ffn=16, d_dec=8, n_dec_layers=3, n_dec_heads=2,
                         dec_ffn=16)
    model = PointerGeneratorModel(config, seed=4)
    encoded = training.encode_corpus(examples, symtab, src_vocab)
    tracer = tracing.Tracer()
    tracer.set_phase("train")
    with tracing.instrument(tracer):
        batch = training.make_batch(encoded, symtab.vocab_size)
        with Tape() as tape:
            logits = model.forward_teacher_forced(batch.src_ids, batch.src_mask, batch.tgt_in,
                                                  train=True, rng=DropoutRng(seed=4))
            tape.backward(training.label_smoothed_ce(logits, batch.gold, batch.step_mask,
                                                     batch.support_mask, 0.1))
    spans = tracing.summarize(tracer, ["train"])
    assert {name: spans[name]["calls"] for name in spans if name.endswith("_attn")} == {
        "model.enc_self_attn": 2, "model.dec_self_attn": 3, "model.dec_cross_attn": 3}
    assert tracer.counts["train"]["autodiff.tape_nodes"] == len(tape.nodes) > 0


def test_kernel_sweep_names_tests_that_exist():
    """``tests/kernel_sweep.py`` runs its tests by node id; renaming or
    moving one must fail here, not only in a sweep."""
    spec = importlib.util.spec_from_file_location("kernel_sweep", ROOT / "tests" / "kernel_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    assert sweep.TESTS
    for node_id in sweep.TESTS:
        path, *names = node_id.split("::")
        target = importlib.import_module(Path(path).stem)
        for name in names:
            target = getattr(target, name, None)
        assert callable(target), node_id


def test_mutation_table_names_text_and_tests_that_exist():
    """Each mutant of ``tests/mutants.py`` names an old text that occurs
    exactly once in its file and test ids that pytest collects, so an edit
    that moves a mutant's target fails here, not only when mutants run."""
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tests" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert len(mutants.MUTANTS) >= 25
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for mutant in mutants.MUTANTS:
        assert (PACKAGE / mutant.file).read_text().count(mutant.old) == 1, mutant.name
        assert mutant.tests and mutant.old != mutant.new, mutant.name
    ids = sorted({test for mutant in mutants.MUTANTS for test in mutant.tests})
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                           "-p", "no:cacheprovider", *ids], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]


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
