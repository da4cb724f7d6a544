"""Self-describing checkpoint directories.

Layout::

    <dir>/
      manifest.json      format version, step, configs, metrics snapshot,
                         tensor index (name, shape, offset), RNG bookkeeping,
                         byte length and sha256 of each .bin file
      params.bin         little-endian float32, concatenated in index order
      optstate.bin       Adam first/second moments, same order as params
      symtab.json        target symbol table
      source_vocab.json  encoder word vocabulary

Loading a checkpoint restores training bit-identically on a single thread;
a format-version mismatch, or a .bin file whose length or sha256 differs from
the manifest's record, is a hard error rather than a best-effort read; so
is a ``symtab.json`` or ``source_vocab.json`` whose size (or pointer range)
differs from the manifest's ``model_config``, and any of the JSON files
whose values have the wrong shape or types, such as a ``model_config`` whose
keys are not exactly ``ModelConfig``'s fields.
A save builds the directory under a temporary sibling name and renames it
into place, so an exception or a killed process partway through a save
never leaves a partial checkpoint under the final name.  Every file and the
temporary directory are fsynced before the rename, and the parent directory
after it, so a checkpoint in place survives a power loss too.  A save killed
between its two renames leaves the previous checkpoint as ``.<name>.old``
and nothing under ``<name>``; loading and lookup read that copy then.

Format 3 changed the dropout mask stream, so a format-2 checkpoint is
refused: training resumed from it could not continue bit-identically.

The manifest's ``provenance`` records what else the arithmetic of a run
depends on (``provenance()``): the BLAS and OpenMP thread variables, the
OpenBLAS kernel core that ran (``blas_core()``), numpy's version and the
dropout mask-stream version.  Resuming under a different record still
works, but need not be bit-identical; ``train_loop`` logs a warning then.
Manifests written before the record existed have none, and resume
silently; those written before the kernel core was recorded lack its key,
so resuming from one logs the warning once.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .autodiff import DropoutRng
from .model import ModelConfig, PointerGeneratorModel
from .vocab import SourceVocab, SymbolTable

FORMAT_VERSION = 3

# The environment variables that set the BLAS and OpenMP thread counts.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


@functools.cache
def blas_core() -> Optional[str]:
    """The kernel core numpy's bundled OpenBLAS runs in this process, such
    as ``"SkylakeX"`` or ``"Haswell"`` (``OPENBLAS_CORETYPE`` picks one;
    otherwise OpenBLAS reads the CPU), or None when the library or its core
    query is missing.  Products round differently on different cores."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        name = corename()
        return name.decode(errors="replace") if name else None
    return None


def provenance() -> dict:
    """This process's thread variables (None when unset), OpenBLAS kernel
    core, numpy version and dropout mask-stream version."""
    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_core": blas_core(),
        "numpy": np.__version__,
        "mask_stream": DropoutRng.STREAM_VERSION,
    }


class CheckpointError(RuntimeError):
    pass


# Every save writes these; a load without one cannot resume bit-identically.
_MANIFEST_KEYS = frozenset({
    "step", "model_config", "train_config", "has_opt_state", "opt_step",
    "dropout_counter", "metrics", "best_dev_em", "params",
})


@dataclass
class Checkpoint:
    step: int
    model_config: ModelConfig
    train_config: dict
    symtab: SymbolTable
    source_vocab: SourceVocab
    params: dict[str, np.ndarray]
    opt_m: Optional[dict[str, np.ndarray]]
    opt_v: Optional[dict[str, np.ndarray]]
    opt_step: int
    dropout_counter: int
    metrics: dict
    best_dev_em: Optional[float]
    provenance: Optional[dict] = None  # None for manifests older than the record

    def build_model(self) -> PointerGeneratorModel:
        """The model whose parameters are this checkpoint's arrays: no random
        init is drawn and nothing is copied, so the model owns the arrays
        from then on; build one model per loaded checkpoint."""

        def stored(name: str, shape: tuple) -> np.ndarray:
            if name not in self.params:
                raise CheckpointError(f"checkpoint missing parameter {name}")
            if self.params[name].shape != shape:
                raise CheckpointError(f"shape mismatch for {name}")
            return self.params[name]

        return PointerGeneratorModel(self.model_config, values=stored)


def _write_blob(path: Path, arrays: list[np.ndarray]) -> tuple[list[int], dict]:
    """Write the arrays; returns their offsets and the file's integrity record."""
    offsets = []
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        pos = 0
        for arr in arrays:
            offsets.append(pos)
            raw = arr.astype("<f4").tobytes()
            fh.write(raw)
            digest.update(raw)
            pos += arr.size
    return offsets, {"bytes": 4 * pos, "sha256": digest.hexdigest()}


def save_checkpoint(
    directory,
    model: PointerGeneratorModel,
    symtab: SymbolTable,
    source_vocab: SourceVocab,
    train_config: dict,
    step: int,
    opt_m: Optional[dict[str, np.ndarray]] = None,
    opt_v: Optional[dict[str, np.ndarray]] = None,
    opt_step: int = 0,
    dropout_counter: int = 0,
    metrics: Optional[dict] = None,
    best_dev_em: Optional[float] = None,
) -> Path:
    """Write a checkpoint to ``directory``, replacing any checkpoint there.

    The files go to ``.<name>.partial`` beside it, which is fsynced with
    every file in it and then renamed to the final name; the previous
    checkpoint is moved to ``.<name>.old`` for that rename and deleted after
    it, once the parent directory is fsynced.  Neither temporary name
    matches the ``step_*`` pattern that pruning and checkpoint lookup read.
    """
    directory = Path(directory)
    partial = directory.with_name(f".{directory.name}.partial")
    retired = _retired(directory)
    if partial.exists():
        shutil.rmtree(partial)  # left by a save that was killed
    partial.mkdir(parents=True)
    try:
        _write_checkpoint(partial, model, symtab, source_vocab, {
            "format_version": FORMAT_VERSION,
            "step": step,
            "model_config": model.config.to_json(),
            "train_config": train_config,
            "has_opt_state": opt_m is not None and opt_v is not None,
            "opt_step": opt_step,
            "dropout_counter": dropout_counter,
            "metrics": metrics or {},
            "best_dev_em": best_dev_em,
            "provenance": provenance(),
        }, opt_m, opt_v)
        for path in sorted(partial.iterdir()):
            _fsync(path)
        _fsync(partial)
    except BaseException:
        shutil.rmtree(partial, ignore_errors=True)
        raise
    # A ``.old`` copy beside a missing directory is the only checkpoint a
    # save killed between the renames left; it goes only once the new one
    # is in place.
    if directory.exists():
        if retired.exists():
            shutil.rmtree(retired)
        os.replace(directory, retired)
    os.replace(partial, directory)
    _fsync(directory.parent)  # makes the renames durable
    shutil.rmtree(retired, ignore_errors=True)
    return directory


def _fsync(path: Path) -> None:
    """Flush a file's or a directory's data and metadata to the disk."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_checkpoint(directory: Path, model, symtab, source_vocab, manifest: dict,
                      opt_m, opt_v) -> None:
    names = list(model.parameters().keys())
    params = [model.parameters()[n].data for n in names]
    offsets, record = _write_blob(directory / "params.bin", params)
    manifest["params"] = [
        {"name": n, "shape": list(p.shape), "offset": off}
        for n, p, off in zip(names, params, offsets)
    ]
    manifest["blobs"] = {"params.bin": record}
    if manifest["has_opt_state"]:
        moments = [opt_m[n] for n in names] + [opt_v[n] for n in names]
        _, manifest["blobs"]["optstate.bin"] = _write_blob(directory / "optstate.bin", moments)
    (directory / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    symtab.save(directory / "symtab.json")
    source_vocab.save(directory / "source_vocab.json")


def _read_blob(path: Path, manifest: dict, copies: int = 1) -> list[dict[str, np.ndarray]]:
    """The ``copies`` consecutive tensor sets of a blob laid out by the
    manifest's index, after checking the blob against its integrity record."""
    index = manifest["params"]
    record = manifest.get("blobs", {}).get(path.name)
    if record is None:
        raise CheckpointError(f"manifest has no integrity record for {path.name}")
    total = sum(int(np.prod(e["shape"])) for e in index)
    expected = 4 * copies * total
    raw = path.read_bytes()
    if len(raw) != expected or len(raw) != record["bytes"]:
        raise CheckpointError(
            f"{path.name} holds {len(raw)} bytes; its manifest records {record['bytes']} "
            f"and its index needs {expected}"
        )
    if hashlib.sha256(raw).hexdigest() != record["sha256"]:
        raise CheckpointError(f"{path.name} does not match the sha256 its manifest records")
    raw = np.frombuffer(raw, dtype="<f4")
    out = []
    for base in range(0, copies * total, total):
        tensors = {}
        for entry in index:
            start = base + entry["offset"]
            size = int(np.prod(entry["shape"]))
            tensors[entry["name"]] = raw[start : start + size].reshape(entry["shape"]).copy()
        out.append(tensors)
    return out


def _retired(directory: Path) -> Path:
    return directory.with_name(f".{directory.name}.old")


def _recovered(directory: Path) -> Path:
    """``directory``, or when it is missing, the ``.<name>.old`` copy that a
    save killed between its two renames left in its place."""
    retired = _retired(directory)
    if not directory.exists() and (retired / "manifest.json").exists():
        return retired
    return directory


@contextlib.contextmanager
def _reading(path: Path):
    """A type, value, key or attribute error inside the block is a
    CheckpointError naming ``path``: the file holds malformed JSON or JSON
    of the wrong shape or types."""
    try:
        yield
    except (TypeError, ValueError, KeyError, AttributeError) as exc:
        raise CheckpointError(f"malformed {path}: {type(exc).__name__}: {exc}") from None


def load_checkpoint(directory, moments: bool = True) -> Checkpoint:
    """The checkpoint in ``directory``, after every check on the files it
    reads.  Without ``moments``, ``optstate.bin`` is neither read nor
    checked, and ``opt_m`` and ``opt_v`` are None: decoding needs only the
    parameters, resuming training needs the moments too."""
    directory = _recovered(Path(directory))
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise CheckpointError(f"no manifest.json in {directory}")
    with _reading(manifest_path):
        manifest = json.loads(manifest_path.read_text())
        if not isinstance(manifest, dict):
            raise CheckpointError(f"{manifest_path} holds no JSON object")
        if manifest.get("format_version") != FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint format {manifest.get('format_version')} != supported {FORMAT_VERSION}"
            )
        missing = sorted(_MANIFEST_KEYS - manifest.keys())
        if missing:
            raise CheckpointError(f"manifest.json in {directory} lacks {', '.join(missing)}")
        (params,) = _read_blob(directory / "params.bin", manifest)
        opt_m = opt_v = None
        if moments and manifest["has_opt_state"]:
            opt_m, opt_v = _read_blob(directory / "optstate.bin", manifest, copies=2)
        config = ModelConfig.from_json(manifest["model_config"])
        counters = {key: int(manifest[key]) for key in ("step", "opt_step", "dropout_counter")}
        best = manifest["best_dev_em"]
        best_dev_em = None if best is None else float(best)
    with _reading(directory / "symtab.json"):
        symtab = SymbolTable.load(directory / "symtab.json")
    with _reading(directory / "source_vocab.json"):
        source_vocab = SourceVocab.load(directory / "source_vocab.json")
    for key, stored in (("vocab_size", symtab.vocab_size), ("max_src_len", symtab.max_src_len),
                        ("src_vocab_size", source_vocab.size)):
        if stored != getattr(config, key):
            raise CheckpointError(f"the vocabularies in {directory} give {key} {stored}; "
                                  f"its model_config says {getattr(config, key)}")
    return Checkpoint(
        model_config=config,
        train_config=manifest["train_config"],
        symtab=symtab,
        source_vocab=source_vocab,
        params=params,
        opt_m=opt_m,
        opt_v=opt_v,
        metrics=manifest["metrics"],
        best_dev_em=best_dev_em,
        provenance=manifest.get("provenance"),
        **counters,
    )


def step_dirs(root) -> list[Path]:
    """The ``step_<digits>`` checkpoint directories under ``root``, oldest first."""
    return sorted(
        (p for p in Path(root).glob("step_*")
         if p.name[5:].isascii() and p.name[5:].isdigit() and p.is_dir()),
        key=lambda p: int(p.name[5:]),
    )


def latest_checkpoint(path) -> Path:
    """``path`` itself if it holds a checkpoint, else its ``best``
    checkpoint, else its newest ``step_<digits>`` checkpoint.  A missing ``path``
    or ``best`` is read from its ``.old`` copy when one is left."""
    path = Path(path)
    for candidate in (_recovered(path), _recovered(path / "best")):
        if (candidate / "manifest.json").exists():
            return candidate
    steps = step_dirs(path)
    if steps:
        return steps[-1]
    raise CheckpointError(f"no checkpoint found under {path}")


def prune_checkpoints(root: Path, keep: int) -> None:
    """Delete all but the newest ``keep`` ``step_<digits>`` checkpoints."""
    for stale in step_dirs(root)[:-keep] if keep > 0 else []:
        shutil.rmtree(stale)
