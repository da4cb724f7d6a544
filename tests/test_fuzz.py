"""Property tests: mutated inputs to every command that reads a file end in a
typed exit.

Each test takes a valid input (JSON-lines records, a bracketed TSV row, BIO
triples, a train config), mutates its text or its bytes, and runs the
command in-process.  The
run must exit 0, 1 or 2, never 3 (an untyped failure), and a failing run
must print exactly one JSON error line on stderr.  The examples are bounded
and derandomized, so the suite stays fast and repeatable; the models are
tiny and train for one step.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointerparse.cli import _MODEL_KEYS, _TRAIN_KEYS, EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from pointerparse.data import default_grammar, example_to_json, generate_synthetic

from helpers import TINY_CONFIG

FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# One record of each style, as the canonical corpus writes them.
RECORDS = []
for _ex in generate_synthetic(default_grammar(), 60, seed=5)["train"]:
    if _ex.style.value not in {r["style"] for r in RECORDS}:
        RECORDS.append(example_to_json(_ex))

TSV_ROW = "how far is the place\t[IN:GET_DISTANCE how far is [SL:DESTINATION the place ] ]"
BIO = ("play hey jude by the beatles", "O B-song I-song O B-artist I-artist", "PlayMusic")

# Snippets of characters that matter to the formats, and of some that do not.
# Inside a JSON string, the escapes spell lone surrogates and a valid pair.
PIECES = st.sampled_from(list("{}[]\":,\t\n @_-IBO0123456789xé") + ["SL:", "IN:", "B-", "I-"]
                         + ["\\ud800", "\\udfff", "\\ud83d\\ude00"])


def snippets(max_size):
    return st.lists(PIECES, max_size=max_size).map("".join)


# Scalars stay small: a config value becomes an array dimension.  A JSON
# line spells the lone surrogates as escapes.
SCALARS = (st.none() | st.booleans() | st.integers(-3, 40) | st.floats(-2, 2)
           | st.sampled_from([float("nan"), float("inf"), "\ud800", "x\udfff"]) | snippets(6))


def containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(snippets(4), inner, max_size=3)


JSON_VALUES = st.recursive(SCALARS, containers, max_leaves=5)


def _paths(obj, prefix=()):
    """Every path of keys and list indices into ``obj``, the root first."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _edit(obj, path, value=None, delete=False):
    """A copy of ``obj`` with the value at ``path`` replaced or deleted."""
    if not path:
        return value
    obj = dict(obj) if isinstance(obj, dict) else list(obj)
    if delete and len(path) == 1:
        del obj[path[0]]
    else:
        obj[path[0]] = _edit(obj[path[0]], path[1:], value, delete)
    return obj


@st.composite
def mutated_text(draw, text):
    """``text`` with one short run of characters replaced, cut or inserted."""
    start = draw(st.integers(0, len(text)))
    stop = draw(st.integers(start, min(len(text), start + 4)))
    return text[:start] + draw(snippets(3)) + text[stop:]


# Byte runs that are not UTF-8: a lone continuation byte, a lead byte cut
# short, an encoded surrogate, and two bytes that UTF-8 never uses.
BAD_BYTES = st.lists(st.sampled_from([b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xfe", b"\xff"]),
                     min_size=1, max_size=3).map(b"".join)


@st.composite
def mutated_bytes(draw, text):
    """``text`` in UTF-8 with one short run of bytes replaced by, or
    preceded by, bytes that are not UTF-8."""
    data = text.encode("utf-8")
    start = draw(st.integers(0, len(data)))
    stop = draw(st.integers(start, min(len(data), start + 4)))
    return data[:start] + draw(BAD_BYTES) + data[stop:]


@st.composite
def mutated_json(draw, obj):
    """``obj`` with one value replaced or deleted, as a JSON line, or its
    JSON line with its characters mutated."""
    how = draw(st.sampled_from(["replace", "delete", "text"]))
    if how == "text":
        return draw(mutated_text(json.dumps(obj)))
    path = draw(st.sampled_from(list(_paths(obj))[1:]))
    if how == "delete":
        return json.dumps(_edit(obj, path, delete=True))
    return json.dumps(_edit(obj, path, draw(JSON_VALUES)))


def run_cli(argv):
    """``main(argv)`` with stdout and stderr captured; checks the exit
    contract and returns the exit code."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA), err.getvalue()
    lines = err.getvalue().splitlines()
    if code == EXIT_OK:
        assert lines == []
    else:
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"error", "message"}
    return code


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A corpus of valid records and a checkpoint trained on it for one step."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "corpus").mkdir()
    (root / "corpus" / "train.jsonl").write_text("".join(json.dumps(r) + "\n" for r in RECORDS))
    (root / "config.json").write_text(json.dumps(TINY_CONFIG))
    assert run_cli(["train", "--corpus", str(root / "corpus"), "--checkpoint", str(root / "ckpt"),
                    "--config", str(root / "config.json"), "--max-steps", "1", "--quiet"]) == EXIT_OK
    return root


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


@FUZZ
@given(st.data())
def test_linearize_and_train_on_mutated_records(workdir, data):
    which = data.draw(st.integers(0, len(RECORDS) - 1))
    lines = [json.dumps(r) for r in RECORDS]
    lines[which] = data.draw(mutated_json(RECORDS[which]))
    corpus = workdir / "mutated"
    corpus.mkdir(exist_ok=True)
    _write_lines(corpus / "train.jsonl", lines)
    run_cli(["linearize", "--input", str(corpus / "train.jsonl")])
    run_cli(["train", "--corpus", str(corpus), "--checkpoint", str(workdir / "ckpt_mutated"),
             "--config", str(workdir / "config.json"), "--max-steps", "1", "--quiet"])


@FUZZ
@given(st.data())
def test_validate_on_mutated_targets(workdir, data):
    record = {"target": "[IN:GET_DISTANCE @ptr_0 [SL:DESTINATION @ptr_2 ]SL:DESTINATION ]"
                        "IN:GET_DISTANCE", "n": 4, "style": "tree"}
    path = workdir / "targets.jsonl"
    _write_lines(path, [data.draw(mutated_json(record))])
    run_cli(["validate", "--input", str(path)])


@FUZZ
@given(st.data())
def test_eval_and_predict_on_mutated_records(workdir, data):
    which = data.draw(st.integers(0, len(RECORDS) - 1))
    path = workdir / "eval.jsonl"
    _write_lines(path, [data.draw(mutated_json(RECORDS[which]))])
    checkpoint = str(workdir / "ckpt")
    run_cli(["eval", "--checkpoint", checkpoint, "--input", str(path), "--beam", "2",
             "--report-dir", str(workdir / "report")])
    query = {"query": RECORDS[which]["query"], "style": RECORDS[which]["style"]}
    _write_lines(path, [data.draw(mutated_json(query))])
    run_cli(["predict", "--checkpoint", checkpoint, "--input", str(path), "--beam", "2",
             "--out", str(workdir / "predictions.jsonl")])


@FUZZ
@given(st.data())
def test_import_on_mutated_rows(workdir, data):
    out = str(workdir / "imported.jsonl")
    tsv = workdir / "rows.tsv"
    _write_lines(tsv, [data.draw(mutated_text(TSV_ROW))])
    run_cli(["import", "--format", "top", "--tsv", str(tsv), "--out", out])
    files = []
    for name, line in zip(("tokens", "tags", "labels"), BIO):
        files += [f"--{name}", str(workdir / name)]
        _write_lines(workdir / name, [data.draw(mutated_text(line))])
    policy = data.draw(st.sampled_from(["reject", "repair"]))
    run_cli(["import", "--format", "bio", *files, "--bio-policy", policy, "--out", out])


@FUZZ
@given(st.data())
def test_train_on_mutated_config(workdir, data):
    key = data.draw(st.sampled_from(sorted([f"model.{k}" for k in _MODEL_KEYS]
                                           + [f"train.{k}" for k in _TRAIN_KEYS])))
    value = data.draw(JSON_VALUES)
    config = workdir / "mutated_config.json"
    config.write_text(json.dumps({**TINY_CONFIG, key: value}))
    run_cli(["train", "--corpus", str(workdir / "corpus"), "--checkpoint",
             str(workdir / "ckpt_config"), "--config", str(config), "--max-steps", "1", "--quiet"])


@FUZZ
@given(st.data())
def test_every_reader_on_bytes_that_are_not_utf8(workdir, data):
    """A file that is not valid UTF-8 is a data error to every command that
    reads one, whichever line and byte it breaks at."""
    corpus = workdir / "bytes"
    corpus.mkdir(exist_ok=True)
    path, out = str(corpus / "train.jsonl"), str(corpus / "out.jsonl")
    checkpoint = str(workdir / "ckpt")
    train = ["train", "--checkpoint", str(workdir / "ckpt_bytes"), "--max-steps", "1", "--quiet"]
    records = [json.dumps(r) for r in RECORDS]
    query = {"query": RECORDS[0]["query"], "style": RECORDS[0]["style"]}
    target = {"target": "[IN:GET_DISTANCE @ptr_0 ]IN:GET_DISTANCE", "n": 4, "style": "tree"}
    cases = {  # each command's valid input lines, and its command line reading them from path
        "linearize": (records, ["linearize", "--input", path]),
        "validate": ([json.dumps(target)], ["validate", "--input", path]),
        "train": (records, train + ["--corpus", str(corpus), "--config", str(workdir / "config.json")]),
        "train --config": ([json.dumps(TINY_CONFIG)],
                           train + ["--corpus", str(workdir / "corpus"), "--config", path]),
        "eval": (records, ["eval", "--checkpoint", checkpoint, "--input", path,
                           "--report-dir", str(workdir / "report")]),
        "predict": ([json.dumps(query)], ["predict", "--checkpoint", checkpoint, "--input", path,
                                          "--out", out]),
        "import top": ([TSV_ROW], ["import", "--format", "top", "--tsv", path, "--out", out]),
        "import bio": ([BIO[0]], ["import", "--format", "bio", "--tokens", path, "--tags",
                                  str(workdir / "tags"), "--labels", str(workdir / "labels"),
                                  "--out", out]),
    }
    lines, argv = cases[data.draw(st.sampled_from(sorted(cases)))]
    which = data.draw(st.integers(0, len(lines) - 1))
    raw = [line.encode("utf-8") for line in lines]
    raw[which] = data.draw(mutated_bytes(lines[which]))
    Path(path).write_bytes(b"".join(line + b"\n" for line in raw))
    _write_lines(workdir / "tags", [BIO[1]])
    _write_lines(workdir / "labels", [BIO[2]])
    code = run_cli(argv)
    try:
        b"".join(raw).decode("utf-8")
    except UnicodeDecodeError:
        assert code == EXIT_DATA
