import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from pointerparse import checkpoint
from pointerparse.checkpoint import (
    CheckpointError,
    latest_checkpoint,
    load_checkpoint,
    prune_checkpoints,
    save_checkpoint,
)
from pointerparse.data import default_grammar, generate_synthetic, write_jsonl
from pointerparse.model import ModelConfig, PointerGeneratorModel
from pointerparse.training import TIMING_FIELDS, prepare_corpus
from pointerparse.vocab import SourceVocab
from helpers import TINY_CONFIG

# The directory of the package under test, for child processes: the caller's
# PYTHONPATH may name another copy than this checkout's src/.
SRC = str(Path(checkpoint.__file__).resolve().parents[1])


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


def test_build_model_takes_the_stored_arrays_without_a_draw(saved, monkeypatch):
    path, _, _ = saved
    loaded = load_checkpoint(path)

    def refuse(*args, **kwargs):
        raise AssertionError("a random init was drawn")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    rebuilt = loaded.build_model()
    assert rebuilt.parameters().keys() == loaded.params.keys()
    for name, p in rebuilt.parameters().items():
        assert p.data.dtype == np.float32 and np.shares_memory(p.data, loaded.params[name])
        assert p.grad is None


@pytest.mark.parametrize("damage, message", [
    ("drop", "checkpoint missing parameter dec_norm.gain"),
    ("shorten", "shape mismatch for dec_norm.gain"),
])
def test_build_model_refuses_a_missing_or_misshapen_parameter(saved, damage, message):
    loaded = load_checkpoint(saved[0])
    if damage == "drop":
        del loaded.params["dec_norm.gain"]
    else:
        loaded.params["dec_norm.gain"] = loaded.params["dec_norm.gain"][:-1]
    with pytest.raises(CheckpointError, match=message):
        loaded.build_model()


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


@pytest.mark.parametrize("blob", ["params.bin", "optstate.bin"])
def test_flipped_byte_is_error(saved, blob):
    path, _, _ = saved
    raw = bytearray((path / blob).read_bytes())
    raw[len(raw) // 2] ^= 0x01  # same size
    (path / blob).write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match=f"{blob}.*sha256"):
        load_checkpoint(path)


@pytest.mark.parametrize("blob", ["params.bin", "optstate.bin"])
def test_blob_without_an_integrity_record_is_error(saved, blob):
    path, _, _ = saved
    manifest = json.loads((path / "manifest.json").read_text())
    del manifest["blobs"][blob]
    (path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError, match=f"manifest has no integrity record for {blob}"):
        load_checkpoint(path)


def test_missing_manifest_is_error(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path)


@pytest.mark.parametrize(
    "key", ["dropout_counter", "opt_step", "has_opt_state", "metrics", "train_config"]
)
def test_manifest_missing_a_key_is_error(saved, key):
    """Without a default to fall back on, a manifest that lost its dropout
    counter cannot resume at counter 0 and silently diverge."""
    path, _, _ = saved
    manifest = json.loads((path / "manifest.json").read_text())
    del manifest[key]
    (path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError, match=key):
        load_checkpoint(path)


@pytest.mark.parametrize("name,key,field", [("symtab.json", "symbols", "vocab_size"),
                                            ("symtab.json", "max_src_len", "max_src_len"),
                                            ("source_vocab.json", "words", "src_vocab_size")])
def test_vocabularies_that_disagree_with_the_model_config_are_error(saved, name, key, field):
    """Only the .bin files carry an integrity record, so a vocabulary one
    entry short (or a pointer range one shorter) must be caught by its size:
    otherwise ids past its end would read as pointers or as UNK."""
    path, _, _ = saved
    vocab = json.loads((path / name).read_text())
    vocab[key] = vocab[key] - 1 if key == "max_src_len" else vocab[key][:-1]
    (path / name).write_text(json.dumps(vocab))
    with pytest.raises(CheckpointError, match=field):
        load_checkpoint(path)


def test_latest_checkpoint_order(tmp_path):
    for step in (9, 10, 100):
        (tmp_path / f"step_{step}").mkdir()
    (tmp_path / "step_1000").write_text("")  # a file, not a checkpoint directory
    assert latest_checkpoint(tmp_path) == tmp_path / "step_100"
    (tmp_path / "best").mkdir()
    (tmp_path / "best" / "manifest.json").write_text("{}")
    assert latest_checkpoint(tmp_path) == tmp_path / "best"
    assert latest_checkpoint(tmp_path / "best") == tmp_path / "best"
    with pytest.raises(CheckpointError):
        latest_checkpoint(tmp_path / "step_9")


def test_prune_keeps_newest(tmp_path):
    for step in (10, 20, 30, 40):
        d = tmp_path / f"step_{step:06d}"
        d.mkdir()
        (d / "manifest.json").write_text("{}")
    prune_checkpoints(tmp_path, keep=2)
    left = sorted(p.name for p in tmp_path.glob("step_*"))
    assert left == ["step_000030", "step_000040"]


def test_lookup_and_pruning_skip_step_names_that_are_not_numbers(tmp_path):
    """Only ``step_<digits>`` directories are step checkpoints: beside
    ``step_final`` or ``step_1e3``, lookup finds the newest numbered one and
    pruning deletes only numbered ones."""
    for name in ("step_000010", "step_000020", "step_final", "step_1e3", "step_"):
        (tmp_path / name).mkdir()
    assert latest_checkpoint(tmp_path) == tmp_path / "step_000020"
    prune_checkpoints(tmp_path, keep=1)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "step_", "step_000020", "step_1e3", "step_final"]


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


def test_save_killed_between_renames_loads_the_previous_checkpoint(saved, monkeypatch):
    """A kill after the old checkpoint moved to ``.best.old`` and before the
    new one moved into place leaves only the ``.old`` copy; loading and
    lookup read it, and the next save replaces it."""
    path, model, symtab = saved
    source_vocab = load_checkpoint(path).source_vocab
    rename = os.replace
    calls = []

    class Killed(BaseException):
        pass

    def killed_on_rename(n):
        def replace(src, dst):
            calls.append(dst)
            if len(calls) == n:
                raise Killed
            rename(src, dst)
        return replace

    monkeypatch.setattr(os, "replace", killed_on_rename(2))
    with pytest.raises(Killed):
        save_checkpoint(path, model, symtab, source_vocab, {}, step=20)
    assert not path.exists()
    assert sorted(p.name for p in path.parent.iterdir()) == [".best.old", ".best.partial"]
    assert load_checkpoint(path).step == 10
    assert latest_checkpoint(path.parent) == path.parent / ".best.old"
    assert load_checkpoint(latest_checkpoint(path)).step == 10

    # With nothing to retire, the next save renames once; the .old copy
    # stays until that rename is done.
    calls.clear()
    monkeypatch.setattr(os, "replace", killed_on_rename(1))
    with pytest.raises(Killed):
        save_checkpoint(path, model, symtab, source_vocab, {}, step=20)
    assert load_checkpoint(path).step == 10

    monkeypatch.setattr(os, "replace", rename)
    save_checkpoint(path, model, symtab, source_vocab, {}, step=30)
    assert load_checkpoint(path).step == 30
    assert [p.name for p in path.parent.iterdir()] == ["best"]


def test_save_killed_after_both_renames_leaves_a_copy_the_next_save_removes(saved, monkeypatch):
    """A kill after the new checkpoint moved into place and before the
    ``.old`` copy was deleted leaves both; the new one loads, and the next
    save retires it over the stale copy."""
    path, model, symtab = saved
    source_vocab = load_checkpoint(path).source_vocab
    fsync = checkpoint._fsync

    class Killed(BaseException):
        pass

    def killed_at_the_parent(target):
        if Path(target) == path.parent:
            raise Killed
        fsync(target)

    monkeypatch.setattr(checkpoint, "_fsync", killed_at_the_parent)
    with pytest.raises(Killed):
        save_checkpoint(path, model, symtab, source_vocab, {}, step=20)
    assert sorted(p.name for p in path.parent.iterdir()) == [".best.old", "best"]
    assert load_checkpoint(path).step == 20
    assert load_checkpoint(path.parent / ".best.old").step == 10

    monkeypatch.setattr(checkpoint, "_fsync", fsync)
    save_checkpoint(path, model, symtab, source_vocab, {}, step=30)
    assert load_checkpoint(path).step == 30
    assert [p.name for p in path.parent.iterdir()] == ["best"]


def test_save_fsyncs_before_the_rename_and_the_parent_after(saved, monkeypatch):
    """Power-loss safety: every file and the ``.partial`` directory reach the
    disk before the rename makes them the checkpoint, and the parent
    directory, which holds the renames, right after."""
    path, model, symtab = saved
    source_vocab = load_checkpoint(path).source_vocab
    fsync, replace = os.fsync, os.replace
    events = []

    def synced(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        fsync(fd)

    def renamed(src, dst):
        events.append(("replace", Path(src).name, Path(dst).name))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", synced)
    monkeypatch.setattr(os, "replace", renamed)
    save_checkpoint(path, model, symtab, source_vocab, {}, step=20)
    files = sorted(p.stat().st_ino for p in path.iterdir())
    assert len(files) == 4  # params, manifest and both vocabularies
    *file_syncs, dir_sync, retire, install, parent_sync = events
    assert sorted(inode for _, inode in file_syncs) == files
    assert dir_sync == ("fsync", path.stat().st_ino)
    assert retire == ("replace", "best", ".best.old")
    assert install == ("replace", ".best.partial", "best")
    assert parent_sync == ("fsync", path.parent.stat().st_ino)
    assert load_checkpoint(path).step == 20


def test_provenance_records_the_blas_kernel_core_that_runs():
    """``OPENBLAS_CORETYPE`` makes numpy's OpenBLAS run another kernel core,
    and the provenance of that process names it."""
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", "import json; from pointerparse.checkpoint "
                           "import provenance; print(json.dumps(provenance()))"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["blas_core"] == "Haswell"


def test_blas_core_is_none_without_the_library(monkeypatch, tmp_path):
    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    assert checkpoint.blas_core.__wrapped__() is None


STEPS = 30  # of the killed run and of its uninterrupted twin


def _train_process(corpus: Path, config: Path, ckpt: Path, resume=None) -> subprocess.Popen:
    """``pointerparse train`` in its own process, with the package under
    test on ``PYTHONPATH``."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    cmd = [sys.executable, "-m", "pointerparse.cli", "train", "--corpus", str(corpus),
           "--checkpoint", str(ckpt), "--config", str(config), "--max-steps", str(STEPS),
           "--quiet"]
    if resume is not None:
        cmd += ["--resume", str(resume)]
    return subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)


def _steps(ckpt: Path) -> list[Path]:
    return sorted(ckpt.glob("step_*"), key=lambda p: int(p.name.split("_")[1]))


def _partials(ckpt: Path) -> list[str]:
    return [p.name for p in ckpt.glob(".step_*.partial")]


def _kill_when(proc: subprocess.Popen, ready, timeout: float = 20.0) -> bool:
    """SIGKILL ``proc`` as soon as ``ready()`` holds, polling; False when the
    process exited first."""
    deadline = time.monotonic() + timeout
    while proc.poll() is None:
        if ready():
            proc.kill()
            proc.communicate(timeout=10)
            return True
        if time.monotonic() > deadline:
            proc.kill()
            raise AssertionError("the training process neither finished nor became killable")
    return False


def _records(ckpt: Path) -> list[dict]:
    return [json.loads(line) for line in (ckpt / "metrics.jsonl").read_text().splitlines()]


def test_a_killed_training_run_resumes_to_its_twins_bytes(tmp_path):
    """A tiny ``pointerparse train`` process gets SIGKILL while a
    ``.step_*.partial`` checkpoint directory exists, and at seeded times
    after seeded steps; each time it resumes from its newest ``step_*``.
    Its final checkpoint then holds the bytes of an uninterrupted twin's
    (parameters and Adam moments), an equal manifest, and its log one
    record per step, equal to the twin's apart from timing."""
    corpus = tmp_path / "train.jsonl"
    write_jsonl(corpus, generate_synthetic(default_grammar(), 40, seed=8)["train"])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY_CONFIG, "train.batch_size": 4, "train.log_every": 1,
                                  "train.checkpoint_every": 1, "train.keep_checkpoints": 2}))
    twin_dir, run_dir = tmp_path / "twin", tmp_path / "run"
    twin = _train_process(corpus, config, twin_dir)

    rng = np.random.default_rng(2024)
    resumes = 0
    proc = _train_process(corpus, config, run_dir)
    # Kill inside a save first: retry until a kill leaves a partial behind.
    killed_in_save = False
    for _ in range(8):
        assert _kill_when(proc, lambda: _steps(run_dir) and _partials(run_dir))
        killed_in_save = bool(_partials(run_dir))
        proc = _train_process(corpus, config, run_dir, resume=_steps(run_dir)[-1])
        resumes += 1
        if killed_in_save:
            break
    assert killed_in_save, "no kill landed while a checkpoint was being written"
    for _ in range(2):
        newest = _steps(run_dir)[-1]
        target = int(newest.name.split("_")[1]) + int(rng.integers(3, 11))
        delay = float(rng.uniform(0.0, 0.005))

        def past_target():
            steps = _steps(run_dir)
            if not steps or int(steps[-1].name.split("_")[1]) < target:
                return False
            time.sleep(delay)
            return True

        assert _kill_when(proc, past_target)
        proc = _train_process(corpus, config, run_dir, resume=_steps(run_dir)[-1])
        resumes += 1
    for done in (proc, twin):
        _, err = done.communicate(timeout=60)
        assert done.returncode == 0, err.decode()[-2000:]

    final = f"step_{STEPS:06d}"
    for name in ("params.bin", "optstate.bin"):
        assert (run_dir / final / name).read_bytes() == (twin_dir / final / name).read_bytes()
    manifests = [json.loads((d / final / "manifest.json").read_text()) for d in (run_dir, twin_dir)]
    assert manifests[0] == manifests[1]

    run_records, twin_records = _records(run_dir), _records(twin_dir)
    logged = [r for r in run_records if "loss" in r]
    assert [r["step"] for r in logged] == list(range(1, STEPS + 1))
    untimed = lambda records: [{k: v for k, v in r.items() if k not in TIMING_FIELDS}
                               for r in records]
    assert untimed(logged) == untimed(twin_records)
    assert sum("resumed_from" in r for r in run_records) == resumes
