import json

import numpy as np
import pytest

from pointerparse.checkpoint import (
    CheckpointError,
    load_checkpoint,
    prune_checkpoints,
    save_checkpoint,
)
from pointerparse.data import default_grammar, generate_synthetic
from pointerparse.model import ModelConfig, PointerGeneratorModel
from pointerparse.training import prepare_corpus
from pointerparse.vocab import SourceVocab


@pytest.fixture()
def saved(tmp_path):
    splits = generate_synthetic(default_grammar(), 30, seed=2)
    symtab, src_vocab = prepare_corpus(splits["train"])
    config = ModelConfig(
        vocab_size=symtab.vocab_size, src_vocab_size=src_vocab.size,
        max_src_len=symtab.max_src_len,
        d_model=16, n_enc_layers=1, n_enc_heads=2, enc_ffn=32,
        d_dec=16, n_dec_layers=1, n_dec_heads=2, dec_ffn=32, dropout=0.0,
    )
    model = PointerGeneratorModel(config, seed=5)
    path = save_checkpoint(
        tmp_path / "best", model, symtab, src_vocab, {"max_steps": 10}, step=10,
        opt_m={k: np.zeros_like(v.data) for k, v in model.parameters().items()},
        opt_v={k: np.zeros_like(v.data) for k, v in model.parameters().items()},
        opt_step=10, dropout_counter=40,
    )
    return path, model, symtab


def test_round_trip_restores_parameters(saved):
    path, model, symtab = saved
    loaded = load_checkpoint(path)
    rebuilt = loaded.build_model()
    for name, p in model.parameters().items():
        np.testing.assert_array_equal(p.data, rebuilt.parameters()[name].data)
    assert loaded.step == 10
    assert loaded.dropout_counter == 40
    assert loaded.symtab == symtab


def test_version_mismatch_is_hard_error(saved):
    path, _, _ = saved
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["format_version"] = 99
    (path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("blob", ["params.bin", "optstate.bin"])
@pytest.mark.parametrize("cut", [2, 4, 1000])
def test_short_blob_is_error(saved, blob, cut):
    path, _, _ = saved
    data = (path / blob).read_bytes()
    (path / blob).write_bytes(data[:-cut])
    with pytest.raises(CheckpointError, match=blob):
        load_checkpoint(path)


def test_missing_manifest_is_error(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path)


def test_prune_keeps_newest(tmp_path):
    for step in (10, 20, 30, 40):
        d = tmp_path / f"step_{step:06d}"
        d.mkdir()
        (d / "manifest.json").write_text("{}")
    prune_checkpoints(tmp_path, keep=2)
    left = sorted(p.name for p in tmp_path.glob("step_*"))
    assert left == ["step_000030", "step_000040"]


def test_resave_replaces_checkpoint_and_leaves_no_temporaries(saved):
    path, model, symtab = saved
    source_vocab = load_checkpoint(path).source_vocab
    save_checkpoint(path, model, symtab, source_vocab, {}, step=20)
    assert load_checkpoint(path).step == 20
    assert [p.name for p in path.parent.iterdir()] == ["best"]


def test_failed_save_keeps_previous_checkpoint(saved, monkeypatch):
    path, model, symtab = saved
    source_vocab = load_checkpoint(path).source_vocab

    def fail(self, target):
        raise OSError("disk full")

    monkeypatch.setattr(SourceVocab, "save", fail)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, model, symtab, source_vocab, {}, step=20)
    assert load_checkpoint(path).step == 10
    assert [p.name for p in path.parent.iterdir()] == ["best"]


def test_leftover_partial_save_is_ignored_and_replaced(saved, tmp_path):
    path, model, symtab = saved
    source_vocab = load_checkpoint(path).source_vocab
    step_dir = save_checkpoint(tmp_path / "step_000020", model, symtab, source_vocab, {}, step=20)
    killed = tmp_path / ".step_000030.partial"  # a save killed before its rename
    killed.mkdir()
    (killed / "params.bin").write_bytes(b"\0" * 8)
    prune_checkpoints(tmp_path, keep=1)
    assert step_dir.exists() and killed.exists()
    save_checkpoint(tmp_path / "step_000030", model, symtab, source_vocab, {}, step=30)
    assert load_checkpoint(tmp_path / "step_000030").step == 30
    assert not killed.exists()
