"""Regression net across commits: the acceptance model's training losses and
decoded outputs, pinned bit for bit.

``tests/fixtures/acceptance_golden.jsonl`` records, for the session
``acceptance_bundle`` model, its ``final_step``, every logged loss, and the
ids, truncation flags and scores (as float hex) of every result of beams 1
and 4 on the first 64 dev queries, decoded through ``decode_sources``, one
JSON line per beam size and query.  Its first line also records the
environment that wrote it: ``checkpoint.provenance()``, numpy's BLAS
build, and the run-time CPU facts that also steer float32 results (the
machine, and the CPU features numpy's SIMD dispatch and OpenBLAS's
DYNAMIC_ARCH core choice read).  A change to any training or decoding
kernel that moves one float by one ulp fails here, naming the first step or
query that moved.

A change that moves these numbers on purpose regenerates the file with::

    PYTHONPATH=src python tests/test_golden.py

which trains the acceptance model (about a minute) and rewrites the file;
say so in ``CHANGES.md``, since the file is test data.
"""

import copy
import json
import platform
from functools import partial
from pathlib import Path

import numpy as np
import pytest
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

from pointerparse.checkpoint import provenance
from pointerparse.decoding import BeamConfig, beam_search_batch, decode_sources

from helpers import train_acceptance_bundle

GOLDEN = Path(__file__).parent / "fixtures" / "acceptance_golden.jsonl"
BEAMS = (1, 4)
QUERIES = 64


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"provenance": provenance(),
            "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
            "machine": platform.machine(),
            "cpu_features": sorted(name for name, on in __cpu_features__.items() if on)}


def golden_lines(bundle) -> list:
    """The golden file's records, computed from ``(result, splits)``: a
    header with the environment, ``final_step`` and the logged losses, then
    one record per beam size and query."""
    result, splits = bundle
    lines = [{"environment": environment(), "final_step": result.final_step,
              "losses": [[rec["step"], float(rec["loss"]).hex()] for rec in result.history]}]
    sources = [result.source_vocab.encode(ex.query.tokens) for ex in splits["dev"][:QUERIES]]
    for k in BEAMS:
        pools = decode_sources(result.model, sources,
                               partial(beam_search_batch, config=BeamConfig(k)), k)
        lines += [{"beam": k, "query": q, "results": pool and [
                      [res.ids, res.truncated, float(res.score).hex()] for res in pool]}
                  for q, pool in enumerate(pools)]
    return lines


def first_difference(recorded: list, current: list):
    """A sentence naming the first step or query whose numbers moved, or
    None when training and decoding match the record."""
    old, new = recorded[0], current[0]
    if old["final_step"] != new["final_step"]:
        return f"training stopped at step {new['final_step']}, not {old['final_step']}"
    for (step, was), (_, now) in zip(old["losses"], new["losses"]):
        if was != now:
            return (f"the loss logged at step {step} is {float.fromhex(now)!r}, "
                    f"recorded {float.fromhex(was)!r}")
    if len(old["losses"]) != len(new["losses"]):
        return f"{len(new['losses'])} losses were logged, not {len(old['losses'])}"
    for was, now in zip(recorded[1:], current[1:]):
        if was != now:
            return (f"beam {now['beam']}, dev query {now['query']}: decoded {now['results']}, "
                    f"recorded {was['results']}")
    if len(recorded) != len(current):
        return f"{len(current) - 1} decoded records, not {len(recorded) - 1}"
    return None


def environment_note(recorded: dict, current: dict) -> str:
    if recorded == current:
        return "The recorded environment equals the one running."
    return (f"The recorded environment differs from the one running: recorded {recorded}, "
            f"running {current}.")


def read_golden() -> list:
    return [json.loads(line) for line in GOLDEN.read_text().splitlines()]


def test_acceptance_model_matches_its_golden_record(acceptance_bundle):
    recorded = read_golden()
    current = golden_lines(acceptance_bundle)
    moved = first_difference(recorded, current)
    if moved is not None:
        note = environment_note(recorded[0]["environment"], current[0]["environment"])
        pytest.fail(f"{moved}. {note}")


def test_a_one_ulp_move_is_named_by_its_step_or_query():
    recorded = read_golden()
    assert first_difference(recorded, recorded) is None
    moved = copy.deepcopy(recorded)
    result = moved[-1]["results"][0]
    result[2] = np.nextafter(float.fromhex(result[2]), 0.0).hex()
    assert first_difference(recorded, moved).startswith(f"beam {BEAMS[-1]}, dev query {QUERIES - 1}:")
    moved = copy.deepcopy(recorded)
    step, loss = moved[0]["losses"][1]
    moved[0]["losses"][1][1] = np.nextafter(float.fromhex(loss), np.inf).hex()
    assert first_difference(recorded, moved).startswith(f"the loss logged at step {step} ")
    assert environment_note(recorded[0]["environment"], {}).startswith(
        "The recorded environment differs")


if __name__ == "__main__":
    lines = golden_lines(train_acceptance_bundle())
    GOLDEN.write_text("".join(json.dumps(line) + "\n" for line in lines))
    print(f"wrote {GOLDEN}")
