"""Self-describing checkpoint directories.

Layout::

    <dir>/
      manifest.json      format version, step, configs, metrics snapshot,
                         tensor index (name, shape, offset), RNG bookkeeping
      params.bin         little-endian float32, concatenated in index order
      optstate.bin       Adam first/second moments, same order as params
      symtab.json        target symbol table
      source_vocab.json  encoder word vocabulary

Loading a checkpoint restores training bit-identically on a single thread;
a format-version mismatch is a hard error rather than a best-effort read.
A save builds the directory under a temporary sibling name and renames it
into place, so an exception or a killed process partway through a save
never leaves a partial checkpoint under the final name.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .model import ModelConfig, PointerGeneratorModel
from .vocab import SourceVocab, SymbolTable

FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    pass


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

    def build_model(self) -> PointerGeneratorModel:
        model = PointerGeneratorModel(self.model_config, seed=0)
        for name, tensor in model.parameters().items():
            if name not in self.params:
                raise CheckpointError(f"checkpoint missing parameter {name}")
            if tensor.data.shape != self.params[name].shape:
                raise CheckpointError(f"shape mismatch for {name}")
            tensor.data = self.params[name].astype(np.float32).copy()
            tensor.zero_grad()
        return model


def _write_blob(path: Path, arrays: list[np.ndarray]) -> list[int]:
    offsets = []
    with open(path, "wb") as fh:
        pos = 0
        for arr in arrays:
            offsets.append(pos)
            raw = arr.astype("<f4").tobytes()
            fh.write(raw)
            pos += arr.size
    return offsets


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

    The files go to ``.<name>.partial`` beside it, which is then renamed to
    the final name; the previous checkpoint is moved to ``.<name>.old`` for
    that rename and deleted after it.  Neither temporary name matches the
    ``step_*`` pattern that pruning and checkpoint lookup read.
    """
    directory = Path(directory)
    partial = directory.with_name(f".{directory.name}.partial")
    retired = directory.with_name(f".{directory.name}.old")
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
        }, opt_m, opt_v)
    except BaseException:
        shutil.rmtree(partial, ignore_errors=True)
        raise
    if retired.exists():
        shutil.rmtree(retired)
    if directory.exists():
        os.replace(directory, retired)
    os.replace(partial, directory)
    shutil.rmtree(retired, ignore_errors=True)
    return directory


def _write_checkpoint(directory: Path, model, symtab, source_vocab, manifest: dict,
                      opt_m, opt_v) -> None:
    names = list(model.parameters().keys())
    params = [model.parameters()[n].data for n in names]
    offsets = _write_blob(directory / "params.bin", params)
    manifest["params"] = [
        {"name": n, "shape": list(p.shape), "offset": off}
        for n, p, off in zip(names, params, offsets)
    ]
    if manifest["has_opt_state"]:
        moments = [opt_m[n] for n in names] + [opt_v[n] for n in names]
        _write_blob(directory / "optstate.bin", moments)
    (directory / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    symtab.save(directory / "symtab.json")
    source_vocab.save(directory / "source_vocab.json")


def _read_blob(path: Path, index: list[dict], copies: int = 1) -> list[dict[str, np.ndarray]]:
    """The ``copies`` consecutive tensor sets of a blob laid out by ``index``."""
    total = sum(int(np.prod(e["shape"])) for e in index)
    expected = 4 * copies * total
    if path.stat().st_size != expected:
        raise CheckpointError(
            f"{path.name} holds {path.stat().st_size} bytes; its manifest index needs {expected}"
        )
    raw = np.fromfile(path, dtype="<f4")
    out = []
    for base in range(0, copies * total, total):
        tensors = {}
        for entry in index:
            start = base + entry["offset"]
            size = int(np.prod(entry["shape"]))
            tensors[entry["name"]] = raw[start : start + size].reshape(entry["shape"]).copy()
        out.append(tensors)
    return out


def load_checkpoint(directory) -> Checkpoint:
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise CheckpointError(f"no manifest.json in {directory}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format {manifest.get('format_version')} != supported {FORMAT_VERSION}"
        )
    index = manifest["params"]
    (params,) = _read_blob(directory / "params.bin", index)
    opt_m = opt_v = None
    if manifest.get("has_opt_state"):
        opt_m, opt_v = _read_blob(directory / "optstate.bin", index, copies=2)
    return Checkpoint(
        step=int(manifest["step"]),
        model_config=ModelConfig.from_json(manifest["model_config"]),
        train_config=manifest.get("train_config", {}),
        symtab=SymbolTable.load(directory / "symtab.json"),
        source_vocab=SourceVocab.load(directory / "source_vocab.json"),
        params=params,
        opt_m=opt_m,
        opt_v=opt_v,
        opt_step=int(manifest.get("opt_step", 0)),
        dropout_counter=int(manifest.get("dropout_counter", 0)),
        metrics=manifest.get("metrics", {}),
        best_dev_em=manifest.get("best_dev_em"),
    )


def prune_checkpoints(root: Path, keep: int) -> None:
    """Delete all but the newest ``keep`` step_* checkpoint directories."""
    steps = sorted(
        (p for p in Path(root).glob("step_*") if p.is_dir()),
        key=lambda p: int(p.name.split("_")[1]),
    )
    for stale in steps[:-keep] if keep > 0 else []:
        shutil.rmtree(stale)
