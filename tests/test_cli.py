import io
import json
import os
import shutil
from collections import Counter

import numpy as np
import pytest

from pointerparse import cli, decoding
from pointerparse.checkpoint import load_checkpoint, save_checkpoint
from pointerparse.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    build_configs,
    load_flat_config,
    main,
)
from pointerparse.data import CorpusExample, DataError, read_jsonl, write_jsonl
from pointerparse.decoding import (
    DECODE_ROWS,
    BeamConfig,
    greedy,
    greedy_batch,
    pad_sources,
    target_cap,
)
from pointerparse.linearize import Kind, ParseNode, Query, SemanticParse, Style, linearize
from pointerparse.model import PointerGeneratorModel
from pointerparse.training import exact_match_rate
from pointerparse.vocab import EOS_ID

from helpers import TINY_CONFIG

FLAT_EXAMPLE = {
    "query": "play the song don't stop believin by journey",
    "style": "flat",
    "parse": {
        "label": "PlaySongIntent",
        "kind": "intent",
        "indices": [],
        "children": [
            {"label": "SongName", "kind": "slot", "indices": [3, 4, 5], "children": []},
            {"label": "ArtistName", "kind": "slot", "indices": [7], "children": []},
        ],
    },
}
FLAT_TARGET = (
    "PlaySongIntent SongName( @ptr_3 @ptr_4 @ptr_5 )SongName ArtistName( @ptr_7 )ArtistName"
)


def run(argv, stdin_text=None, monkeypatch=None, capsys=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestLinearizeCommand:
    def test_flat_listing_on_stdin(self, monkeypatch, capsys):
        code, out, err = run(
            ["linearize"], json.dumps(FLAT_EXAMPLE) + "\n", monkeypatch, capsys
        )
        assert code == EXIT_OK
        assert out.strip() == FLAT_TARGET

    def test_bad_parse_is_data_error(self, monkeypatch, capsys):
        broken = dict(FLAT_EXAMPLE, parse={"label": "X", "kind": "intent", "indices": [99], "children": []})
        code, out, err = run(["linearize"], json.dumps(broken) + "\n", monkeypatch, capsys)
        assert code == EXIT_DATA
        assert json.loads(err)["error"]


class TestValidateCommand:
    def test_truncated_target_reports_but_exits_zero(self, monkeypatch, capsys):
        line = json.dumps({"target": "[IN:X @ptr_0", "n": 3, "style": "tree"})
        code, out, err = run(["validate"], line + "\n", monkeypatch, capsys)
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["well_formed"] is False
        assert record["violations"] == ["unbalanced_bracket"]

    def test_well_formed_target(self, monkeypatch, capsys):
        line = json.dumps({"target": FLAT_TARGET, "n": 8, "style": "flat"})
        code, out, err = run(["validate"], line + "\n", monkeypatch, capsys)
        assert code == EXIT_OK
        assert json.loads(out)["well_formed"] is True


def assert_one_error_line(err, error=None):
    """``err`` is one JSON error line, naming ``error`` when it is given."""
    lines = err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert set(record) == {"error", "message"}
    assert error is None or record["error"] == error


class TestUsageAndErrors:
    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        assert_one_error_line(capsys.readouterr().err, "UsageError")

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["generate"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert_one_error_line(err, "UsageError")
        assert json.loads(err)["message"] == (
            "pointerparse generate: the following arguments are required: --out")

    def test_flag_value_of_the_wrong_type_is_one_json_line(self, capsys):
        """argparse's own errors exit 1 with one JSON line, not its usage text."""
        code = main(["import", "--format", "top", "--tsv", "t.tsv", "--parse-col", "x",
                     "--out", "o.jsonl"])
        out, err = capsys.readouterr()
        assert code == EXIT_USAGE
        assert out == ""
        assert_one_error_line(err, "UsageError")
        assert json.loads(err)["message"] == (
            "pointerparse import: argument --parse-col: invalid int value: 'x'")

    def test_help_exits_zero_with_its_text(self, capsys):
        assert main(["import", "--help"]) == EXIT_OK
        out, err = capsys.readouterr()
        assert out.startswith("usage: pointerparse import")
        assert "--parse-col" in out
        assert err == ""

    def test_missing_file_is_data_error(self, capsys):
        code = main(["import", "--format", "top", "--tsv", "/nonexistent.tsv", "--out", "/tmp/x.jsonl"])
        assert code == EXIT_DATA

    def test_bio_format_requires_triple(self, capsys):
        code = main(["import", "--format", "bio", "--out", "/tmp/x.jsonl"])
        assert code == EXIT_USAGE

    def test_top_format_requires_tsv(self, tmp_path, capsys):
        out = tmp_path / "x.jsonl"
        assert main(["import", "--format", "top", "--out", str(out)]) == EXIT_USAGE
        assert json.loads(capsys.readouterr().err) == {"error": "UsageError",
                                                       "message": "--format top needs --tsv"}
        assert not out.exists()

    def test_an_unexpected_error_exits_3_with_one_json_line(self, monkeypatch, capsys):
        def broken(args):
            raise ZeroDivisionError("a bug")

        monkeypatch.setattr(cli, "cmd_validate", broken)
        assert main(["validate"]) == cli.EXIT_RUNTIME
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "ZeroDivisionError", "message": "a bug"}

    @pytest.mark.parametrize("value", ["-5", "-1"])
    @pytest.mark.parametrize("flag", ["--utterance-col", "--parse-col"])
    def test_negative_column_is_usage_error(self, flag, value, tmp_path, capsys):
        """A negative column index is refused before the file is read: -1
        would otherwise pick the last column, and -5 one that is not there."""
        tsv = tmp_path / "t.tsv"
        tsv.write_text("play hey jude\t[IN:PLAY_MUSIC play [SL:SONG hey jude ] ]\n")
        out = tmp_path / "c.jsonl"
        code = main(["import", "--format", "top", "--tsv", str(tsv), flag, value, "--out", str(out)])
        _, err = capsys.readouterr()
        assert code == EXIT_USAGE
        assert json.loads(err)["error"] == "UsageError"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "generate", "eval"])
    def test_a_file_where_a_directory_belongs_is_data_error(self, command, tmp_path, request,
                                                             capsys):
        """A path that names a file where a command writes its directory
        exits 2 with one JSON line."""
        file = tmp_path / "file"
        file.write_text("")
        argv = ["generate", "--out", str(file), "--count", "3"]
        if command != "generate":
            pipeline = request.getfixturevalue("pipeline_dir")
            argv = {"train": ["train", "--corpus", str(pipeline / "corpus"),
                              "--checkpoint", str(file), "--max-steps", "1"],
                    "eval": ["eval", "--checkpoint", str(pipeline / "ckpt" / "best"),
                             "--input", str(pipeline / "corpus" / "dev.jsonl"),
                             "--report-dir", str(file)]}[command]
        assert main(argv) == EXIT_DATA
        assert_one_error_line(capsys.readouterr().err, "FileExistsError")

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_below_one_is_usage_error(self, count, tmp_path, capsys):
        """``generate --count`` below 1 is refused before anything is written."""
        out = tmp_path / "corpus"
        code = main(["generate", "--out", str(out), "--count", count])
        stdout, err = capsys.readouterr()
        assert code == EXIT_USAGE
        assert stdout == ""
        assert_one_error_line(err, "UsageError")
        assert json.loads(err)["message"] == f"--count must be at least 1, got {count}"
        assert not out.exists()

    @pytest.mark.parametrize("limit", ["0", "-2"])
    def test_max_src_len_below_one_is_usage_error(self, limit, tmp_path, capsys):
        """``train --max-src-len`` below 1 is refused before the corpus is
        read: there is none."""
        ckpt = tmp_path / "ckpt"
        code = main(["train", "--corpus", str(tmp_path / "none"), "--checkpoint", str(ckpt),
                     "--max-src-len", limit])
        stdout, err = capsys.readouterr()
        assert code == EXIT_USAGE
        assert stdout == ""
        assert_one_error_line(err, "UsageError")
        assert json.loads(err)["message"] == f"--max-src-len must be at least 1, got {limit}"
        assert not ckpt.exists()


def _with_slot(**changes):
    """FLAT_EXAMPLE with its first slot's fields replaced."""
    slot = dict(FLAT_EXAMPLE["parse"]["children"][0], **changes)
    return dict(FLAT_EXAMPLE, parse=dict(FLAT_EXAMPLE["parse"], children=[slot]))


# Malformed records of each JSON-lines input, as raw lines; a line of bytes
# is written as it is.  ``json.dumps`` writes a lone surrogate as its escape.
CORPUS_DEFECTS = {
    "unknown style": json.dumps(dict(FLAT_EXAMPLE, style="bogus")),
    "non-integer index": json.dumps(_with_slot(indices=["q"])),
    "boolean index": json.dumps(_with_slot(indices=[True])),
    "unknown kind": json.dumps(_with_slot(kind="bogus")),
    "non-string label": json.dumps(_with_slot(label=5)),
    "non-string query": json.dumps(dict(FLAT_EXAMPLE, query=5)),
    "not an object": "[1, 2]",
    "not UTF-8": json.dumps(FLAT_EXAMPLE).encode().replace(b"journey", b"journ\xff\xfe"),
    "lone surrogate": json.dumps(dict(FLAT_EXAMPLE, parse=dict(FLAT_EXAMPLE["parse"],
                                                               label="Play\ud800"))),
}
VALIDATE_DEFECTS = {
    "unknown style": json.dumps({"target": FLAT_TARGET, "n": 8, "style": "bogus"}),
    "bad pointer": json.dumps({"target": "@ptr_x", "n": 3, "style": "tree"}),
    "non-string target": json.dumps({"target": 5, "n": 3, "style": "tree"}),
    "string n": json.dumps({"target": FLAT_TARGET, "n": "eight", "style": "flat"}),
    "fractional n": json.dumps({"target": FLAT_TARGET, "n": 8.5, "style": "flat"}),
    "not an object": "[1, 2]",
    "not UTF-8": b'{"target": "\xff\xfe", "n": 1, "style": "tree"}',
    "lone surrogate": json.dumps({"target": "[IN:X\udfff @ptr_0 ]IN:X\udfff", "n": 1,
                                  "style": "tree"}),
}
PREDICT_DEFECTS = {
    "unknown style": json.dumps({"query": "play hey jude", "style": "bogus"}),
    "non-string query": json.dumps({"query": 5}),
    "not an object": "[1, 2]",
    "not UTF-8": b'{"query": "play hey \xff\xfe"}',
    "lone surrogate": json.dumps({"query": "play hey \ud800"}),
}
MALFORMED_RECORDS = (
    [("linearize", case, line) for case, line in CORPUS_DEFECTS.items()]
    + [("train", case, line) for case, line in CORPUS_DEFECTS.items()]
    + [("eval", case, line) for case, line in CORPUS_DEFECTS.items()]
    + [("validate", case, line) for case, line in VALIDATE_DEFECTS.items()]
    + [("predict", case, line) for case, line in PREDICT_DEFECTS.items()]
)


@pytest.mark.parametrize(
    "command,line", [(command, line) for command, _, line in MALFORMED_RECORDS],
    ids=[f"{command}-{case}" for command, case, _ in MALFORMED_RECORDS],
)
def test_malformed_record_is_data_error(command, line, tmp_path, request, capsys):
    """Every JSON-lines command exits 2 with one JSON error line on stderr."""
    (tmp_path / "train.jsonl").write_bytes((line if isinstance(line, bytes) else line.encode()) + b"\n")
    argv = {
        "linearize": ["linearize", "--input", str(tmp_path / "train.jsonl")],
        "validate": ["validate", "--input", str(tmp_path / "train.jsonl")],
        "train": ["train", "--corpus", str(tmp_path), "--checkpoint", str(tmp_path / "ckpt")],
    }.get(command)
    if argv is None:
        checkpoint = request.getfixturevalue("pipeline_dir") / "ckpt" / "best"
        argv = [command, "--checkpoint", str(checkpoint), "--input", str(tmp_path / "train.jsonl")]
    code = main(argv)
    _, err = capsys.readouterr()
    assert code == EXIT_DATA
    assert_one_error_line(err)


class TestConfigMerging:
    def test_file_env_flag_precedence(self, tmp_path, monkeypatch):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"train.max_steps": 100, "train.batch_size": 4}))
        monkeypatch.setenv("POINTERPARSE_TRAIN__MAX_STEPS", "200")
        flat = load_flat_config(str(config))
        model_kwargs, train_config = build_configs(flat, {"train.max_steps": 300})
        assert train_config.max_steps == 300  # flag beats env beats file
        assert train_config.batch_size == 4

    def test_env_only(self, monkeypatch):
        monkeypatch.setenv("POINTERPARSE_TRAIN__BATCH_SIZE", "7")
        flat = load_flat_config(None)
        _, train_config = build_configs(flat, {})
        assert train_config.batch_size == 7

    def test_env_value_is_decoded_once(self, monkeypatch):
        """A quoted environment value is a JSON string, not a number."""
        monkeypatch.setenv("POINTERPARSE_TRAIN__SEED", '"5"')
        flat = load_flat_config(None)
        assert flat["train.seed"] == "5"
        with pytest.raises(DataError, match=r"^train\.seed "):
            build_configs(flat, {})

    def test_env_value_that_is_not_json_is_a_string(self, monkeypatch):
        monkeypatch.setenv("POINTERPARSE_MODEL__D_MODEL", "wide")
        assert load_flat_config(None)["model.d_model"] == "wide"

    @pytest.mark.parametrize("text", ["[1, 2]", '"model.d_model"', "3"])
    def test_config_file_that_is_not_an_object_is_data_error(self, text, tmp_path, capsys):
        (tmp_path / "train.jsonl").write_text(json.dumps(FLAT_EXAMPLE) + "\n")
        config = tmp_path / "c.json"
        config.write_text(text)
        code = main(["train", "--corpus", str(tmp_path), "--checkpoint", str(tmp_path / "ckpt"),
                     "--config", str(config), "--quiet"])
        _, err = capsys.readouterr()
        assert code == EXIT_DATA
        assert json.loads(err) == {"error": "DataError",
                                   "message": "config file must hold a JSON object of dotted keys"}
        assert not (tmp_path / "ckpt").exists()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        for key in ("model.bogus_field", "train.adam_beta1"):
            with pytest.raises(DataError):
                build_configs({key: 1}, {})
        (tmp_path / "train.jsonl").write_text(json.dumps(FLAT_EXAMPLE) + "\n")
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"train.adam_beta1": 0.9}))
        code = main(["train", "--corpus", str(tmp_path), "--checkpoint", str(tmp_path / "ckpt"),
                     "--config", str(config)])
        _, err = capsys.readouterr()
        assert code == EXIT_DATA
        assert json.loads(err)["error"] == "DataError"

    def test_beam_config_section_rejected(self):
        with pytest.raises(DataError):
            build_configs({"beam.beam_size": 4}, {})

    @pytest.mark.parametrize("key,value", [
        ("train.batch_size", 0),
        ("train.log_every", 0),
        ("train.batch_size", "big"),
        ("train.batch_size", "7"),
        ("model.d_model", "64"),
        ("model.n_enc_heads", 0),
        ("train.epsilon_ls", 2),
        ("model.dropout", 1.5),
        ("train.max_steps", -3),
    ])
    def test_out_of_range_value_is_data_error_naming_its_key(self, key, value, tmp_path, capsys):
        (tmp_path / "train.jsonl").write_text(json.dumps(FLAT_EXAMPLE) + "\n")
        config = tmp_path / "c.json"
        config.write_text(json.dumps({**TINY_CONFIG, "train.max_steps": 2, key: value}))
        ckpt = tmp_path / "ckpt"
        code = main(["train", "--corpus", str(tmp_path), "--checkpoint", str(ckpt),
                     "--config", str(config), "--quiet"])
        _, err = capsys.readouterr()
        assert code == EXIT_DATA
        lines = err.splitlines()
        assert len(lines) == 1
        failure = json.loads(lines[0])
        assert failure["error"] == "DataError"
        assert failure["message"].startswith(f"{key} ")
        assert not ckpt.exists()


@pytest.mark.parametrize("batch_size", [1, 3])
def test_train_refuses_an_empty_query_with_exit_2(batch_size, tmp_path, capsys):
    """An empty query is a data error (exit 2) naming the example, whether
    a batch would hold it alone or among examples around it."""
    empty = {"query": "", "style": "flat",
             "parse": {"label": "X", "kind": "intent", "indices": [], "children": []}}
    records = [FLAT_EXAMPLE, empty, FLAT_EXAMPLE]
    (tmp_path / "train.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    config = tmp_path / "c.json"
    config.write_text(json.dumps({**TINY_CONFIG, "train.max_steps": 3,
                                  "train.batch_size": batch_size}))
    ckpt = tmp_path / "ckpt"
    code = main(["train", "--corpus", str(tmp_path), "--checkpoint", str(ckpt),
                 "--config", str(config), "--quiet"])
    _, err = capsys.readouterr()
    assert code == EXIT_DATA
    failure = json.loads(err)
    assert failure["error"] == "DataError"
    assert failure["message"] == "training example 1 has an empty query"
    assert not ckpt.exists()


GROCERY_EXAMPLE = {
    "query": "add milk to my grocery list",
    "style": "flat",
    "parse": {
        "label": "AddToListIntent",
        "kind": "intent",
        "indices": [],
        "children": [
            {"label": "Item", "kind": "slot", "indices": [1], "children": []},
            {"label": "List", "kind": "slot", "indices": [4], "children": []},
        ],
    },
}


@pytest.mark.parametrize("record, tokens", [(GROCERY_EXAMPLE, 6), (FLAT_EXAMPLE, 8)],
                         ids=["pointers_inside_the_limit", "a_pointer_past_the_limit"])
def test_train_refuses_a_query_longer_than_max_src_len_with_exit_2(record, tokens, tmp_path,
                                                                   capsys):
    """A query longer than ``--max-src-len`` is a data error (exit 2) naming
    the example, its token count and the limit, whether or not one of its
    pointers lies past the limit."""
    short = {"query": "play it", "style": "flat",
             "parse": {"label": "PlayIntent", "kind": "intent", "indices": [], "children": []}}
    (tmp_path / "train.jsonl").write_text("".join(json.dumps(r) + "\n" for r in (short, record)))
    config = tmp_path / "c.json"
    config.write_text(json.dumps({**TINY_CONFIG, "train.max_steps": 2}))
    ckpt = tmp_path / "ckpt"
    code = main(["train", "--corpus", str(tmp_path), "--checkpoint", str(ckpt),
                 "--config", str(config), "--max-src-len", "5", "--quiet"])
    _, err = capsys.readouterr()
    assert code == EXIT_DATA
    failure = json.loads(err)
    assert failure["error"] == "DataError"
    assert failure["message"] == f"training example 1 has {tokens} query tokens, above max_src_len 5"
    assert not ckpt.exists()


def test_train_without_quiet_prints_each_record_it_logs(tmp_path, capsys):
    """Without ``--quiet``, ``train`` prints every record it appends to
    ``metrics.jsonl``, one JSON line each, then its summary line."""
    (tmp_path / "train.jsonl").write_text(json.dumps(FLAT_EXAMPLE) + "\n")
    config = tmp_path / "c.json"
    config.write_text(json.dumps({**TINY_CONFIG, "train.log_every": 1}))
    ckpt = tmp_path / "ckpt"
    code = main(["train", "--corpus", str(tmp_path), "--checkpoint", str(ckpt),
                 "--config", str(config), "--max-steps", "3"])
    out, _ = capsys.readouterr()
    assert code == EXIT_OK
    *records, summary = out.splitlines()
    assert records == (ckpt / "metrics.jsonl").read_text().splitlines()
    assert [json.loads(r)["step"] for r in records] == [1, 2, 3]
    assert json.loads(summary)["final_step"] == 3


def _chain(depth: int) -> dict:
    """A tree parse of ``depth`` nested nodes, intents and slots in turn,
    whose innermost node points at token 0."""
    def node(level, children):
        kind, prefix = ("slot", "SL") if level % 2 else ("intent", "IN")
        return {"label": f"{prefix}:N{level}", "kind": kind, "indices": [] if children else [0],
                "children": children}

    parse = node(depth - 1, [])
    for level in reversed(range(depth - 1)):
        parse = node(level, [parse])
    return parse


def test_train_refuses_a_target_longer_than_max_tgt_len_with_exit_2(tmp_path, capsys):
    """A target the decoder cannot hold (BOS plus its symbols above the
    model's ``max_tgt_len``) is a data error (exit 2) naming the example,
    its length and the limit, before any checkpoint is written."""
    deep = {"query": "hello", "style": "tree", "parse": _chain(17)}
    (tmp_path / "train.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in (FLAT_EXAMPLE, deep)))
    config = tmp_path / "c.json"
    config.write_text(json.dumps({**TINY_CONFIG, "train.max_steps": 2}))
    ckpt = tmp_path / "ckpt"
    code = main(["train", "--corpus", str(tmp_path), "--checkpoint", str(ckpt),
                 "--config", str(config), "--quiet"])
    _, err = capsys.readouterr()
    assert code == EXIT_DATA
    failure = json.loads(err)
    assert failure["error"] == "DataError"
    # 8 query tokens give max_tgt_len 2 * 8 + 16 + 2 = 34; the chain has 35 symbols.
    assert failure["message"] == ("training example 1 has 35 target symbols; with BOS they "
                                  "exceed max_tgt_len 34")
    assert not ckpt.exists()


def test_a_fresh_train_into_a_directory_holding_a_run_exits_2_and_leaves_it(tmp_path, capsys):
    """A second ``train`` with no ``--resume`` into the checkpoint directory
    of a finished run is a data error (exit 2) naming the directory, and
    every file of the first run keeps its bytes: no checkpoint of it is
    pruned, and its log gains no line."""
    (tmp_path / "train.jsonl").write_text(json.dumps(FLAT_EXAMPLE) + "\n")
    config = tmp_path / "c.json"
    config.write_text(json.dumps({**TINY_CONFIG, "train.checkpoint_every": 2}))
    ckpt = tmp_path / "ckpt"
    train = ["train", "--corpus", str(tmp_path), "--checkpoint", str(ckpt), "--config", str(config),
             "--quiet"]
    assert main(train + ["--max-steps", "6"]) == EXIT_OK
    capsys.readouterr()
    before = {p: p.read_bytes() if p.is_file() else None for p in ckpt.rglob("*")}
    assert ckpt / "step_000006" in before and ckpt / "metrics.jsonl" in before
    assert main(train + ["--max-steps", "2", "--seed", "5"]) == EXIT_DATA
    _, err = capsys.readouterr()
    assert_one_error_line(err, "FileExistsError")
    assert str(ckpt) in json.loads(err)["message"]
    assert {p: p.read_bytes() if p.is_file() else None for p in ckpt.rglob("*")} == before


def no_child_process() -> bool:
    """This process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """generate -> train (tiny) once; shared by eval/predict tests."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus = root / "corpus"
    assert main(["generate", "--out", str(corpus), "--count", "120", "--seed", "17"]) == EXIT_OK
    config = root / "config.json"
    config.write_text(
        json.dumps(
            {
                "model.d_model": 48,
                "model.d_dec": 48,
                "model.n_enc_layers": 1,
                "model.n_dec_layers": 1,
                "model.enc_ffn": 96,
                "model.dec_ffn": 96,
                "train.batch_size": 16,
                "train.warmup_steps": 100,
                "train.eval_every": 200,
                "train.log_every": 100,
                "train.early_stop_dev_em": 1.0,
            }
        )
    )
    ckpt = root / "ckpt"
    code = main(
        [
            "train",
            "--corpus", str(corpus),
            "--checkpoint", str(ckpt),
            "--config", str(config),
            "--seed", "3",
            "--max-steps", "1200",
            "--quiet",
        ]
    )
    assert code == EXIT_OK
    return root


class TestPipeline:
    def test_generate_writes_all_splits(self, pipeline_dir, capsys):
        corpus = pipeline_dir / "corpus"
        for name in ("train.jsonl", "dev.jsonl", "test.jsonl", "generate.json"):
            assert (corpus / name).exists()

    def test_checkpoint_is_self_describing(self, pipeline_dir):
        ckpt = pipeline_dir / "ckpt"
        found = list(ckpt.glob("step_*")) + [ckpt / "best"]
        manifest = json.loads((found[0] / "manifest.json").read_text())
        assert manifest["format_version"] == 3
        assert set(manifest["blobs"]) == {"params.bin", "optstate.bin"}
        for name, record in manifest["blobs"].items():
            assert record["bytes"] == (found[0] / name).stat().st_size
            assert len(record["sha256"]) == 64
        assert "model_config" in manifest and "train_config" in manifest
        assert (found[0] / "symtab.json").exists()
        assert (found[0] / "source_vocab.json").exists()

    def test_resume_from_format_2_checkpoint_exits_2(self, pipeline_dir, tmp_path, capsys):
        """Format 3 changed the dropout mask stream, so a format-2 checkpoint
        cannot resume bit-identically and is refused."""
        old = tmp_path / "format2"
        shutil.copytree(pipeline_dir / "ckpt" / "best", old)
        manifest = json.loads((old / "manifest.json").read_text())
        manifest["format_version"] = 2
        (old / "manifest.json").write_text(json.dumps(manifest))
        code = main(["train", "--corpus", str(pipeline_dir / "corpus"),
                     "--checkpoint", str(tmp_path / "resumed"),
                     "--config", str(pipeline_dir / "config.json"),
                     "--resume", str(old), "--quiet"])
        _, err = capsys.readouterr()
        assert code == EXIT_DATA
        failure = json.loads(err)
        assert failure["error"] == "CheckpointError"
        assert "format 2" in failure["message"]
        assert not list((tmp_path / "resumed").glob("step_*"))

    def test_eval_and_predict_read_no_optimizer_moments(self, pipeline_dir, tmp_path, capsys):
        """Decoding needs only the parameters, so ``eval`` and ``predict``
        run on a checkpoint whose ``optstate.bin`` is corrupt, while resuming
        from it is still refused."""
        broken = tmp_path / "ckpt"
        shutil.copytree(pipeline_dir / "ckpt" / "best", broken)
        raw = bytearray((broken / "optstate.bin").read_bytes())
        raw[len(raw) // 2] ^= 0x01
        (broken / "optstate.bin").write_bytes(bytes(raw))
        dev = str(pipeline_dir / "corpus" / "dev.jsonl")
        assert main(["eval", "--checkpoint", str(broken), "--input", dev,
                     "--report-dir", str(tmp_path / "report")]) == EXIT_OK
        assert main(["predict", "--checkpoint", str(broken), "--input", dev,
                     "--out", str(tmp_path / "out.jsonl")]) == EXIT_OK
        capsys.readouterr()
        code = main(["train", "--corpus", str(pipeline_dir / "corpus"),
                     "--checkpoint", str(tmp_path / "resumed"),
                     "--config", str(pipeline_dir / "config.json"),
                     "--resume", str(broken), "--quiet"])
        _, err = capsys.readouterr()
        assert code == EXIT_DATA
        failure = json.loads(err)
        assert failure["error"] == "CheckpointError"
        assert "optstate.bin does not match the sha256" in failure["message"]

    MALFORMED = {
        "unknown_config_key": ("manifest.json", lambda m: m | {
            "model_config": m["model_config"] | {"d_modle": 128}}),
        "config_without_d_model": ("manifest.json", lambda m: m | {"model_config": {
            k: v for k, v in m["model_config"].items() if k != "d_model"}}),
        "config_without_dropout": ("manifest.json", lambda m: m | {"model_config": {
            k: v for k, v in m["model_config"].items() if k != "dropout"}}),
        "null_config": ("manifest.json", lambda m: m | {"model_config": None}),
        "step_not_a_number": ("manifest.json", lambda m: m | {"step": "abc"}),
        "best_dev_em_not_a_number": ("manifest.json", lambda m: m | {"best_dev_em": "abc"}),
        "params_not_a_list": ("manifest.json", lambda m: m | {"params": 5}),
        "shape_not_a_list": ("manifest.json", lambda m: m | {
            "params": [m["params"][0] | {"shape": "x"}] + m["params"][1:]}),
        "manifest_a_list": ("manifest.json", lambda m: [m]),
        "manifest_a_string": ("manifest.json", lambda m: "manifest"),
        "symbols_not_a_list": ("symtab.json", lambda v: {"symbols": 5}),
        "symbol_not_a_string": ("symtab.json", lambda v: v | {"symbols": [5] + v["symbols"]}),
        "words_null": ("source_vocab.json", lambda v: {"words": None}),
        "pad_swapped_for_a_parse_symbol": ("symtab.json", lambda v: v | {
            "symbols": v["symbols"][3:4] + v["symbols"][1:3] + v["symbols"][:1] + v["symbols"][4:]}),
        "symbol_repeated": ("symtab.json", lambda v: v | {
            "symbols": v["symbols"][:-1] + v["symbols"][3:4]}),
        "pointer_among_parse_symbols": ("symtab.json", lambda v: v | {
            "symbols": v["symbols"][:-1] + ["@ptr_0"]}),
        "pad_word_moved": ("source_vocab.json", lambda v: {
            "words": v["words"][2:3] + v["words"][1:2] + v["words"][:1] + v["words"][3:]}),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_eval_of_a_malformed_checkpoint_exits_2(self, pipeline_dir, tmp_path, capsys, case):
        """A checkpoint file of the wrong shape or types is a CheckpointError
        (exit 2, one JSON line naming the file), not a bare Python error;
        a ``model_config`` that lacks a field does not load its default."""
        name, edit = self.MALFORMED[case]
        broken = tmp_path / "broken"
        shutil.copytree(pipeline_dir / "ckpt" / "best", broken)
        (broken / name).write_text(json.dumps(edit(json.loads((broken / name).read_text()))))
        code = main(["eval", "--checkpoint", str(broken),
                     "--input", str(pipeline_dir / "corpus" / "test.jsonl")])
        _, err = capsys.readouterr()
        assert code == EXIT_DATA
        lines = err.splitlines()
        assert len(lines) == 1
        failure = json.loads(lines[0])
        assert failure["error"] == "CheckpointError"
        assert name in failure["message"]

    def test_eval_writes_report(self, pipeline_dir, capsys):
        report_dir = pipeline_dir / "report"
        code = main(
            [
                "eval",
                "--checkpoint", str(pipeline_dir / "ckpt" / "best"),
                "--input", str(pipeline_dir / "corpus" / "train.jsonl"),
                "--beam", "4",
                "--report-dir", str(report_dir),
            ]
        )
        out, err = capsys.readouterr()
        assert code == EXIT_OK
        headline = json.loads(out)
        assert set(headline) >= {"em_accuracy", "intent_accuracy", "well_formed_rate"}
        assert headline["em_accuracy"] >= 0.9  # tiny model memorizes the corpus
        report = json.loads((report_dir / "report.json").read_text())
        assert report == headline
        details = [json.loads(l) for l in (report_dir / "details.jsonl").read_text().splitlines()]
        assert len(details) == 96
        assert {"exact", "well_formed", "prediction", "truncated"} <= set(details[0])
        assert all(isinstance(d["truncated"], bool) for d in details)
        decode = report["decode"]
        assert decode["beam_size"] == 4
        assert decode["truncated"] == sum(d["truncated"] for d in details)
        emitted = [len(d["prediction"].split()) for d in details]
        assert decode["emitted_len_mean"] == pytest.approx(sum(emitted) / len(emitted))
        examples = read_jsonl(pipeline_dir / "corpus" / "train.jsonl")
        gold = [len(linearize(ex.parse, ex.query).strip_framing()) for ex in examples]
        assert decode["gold_len_mean"] == pytest.approx(sum(gold) / len(gold))
        for style, figures in report["by_style"].items():
            rows = [d for d in details if d["style"] == style]
            assert figures == {
                "examples": len(rows),
                "em_accuracy": pytest.approx(sum(d["exact"] for d in rows) / len(rows)),
                "well_formed_rate": pytest.approx(sum(d["well_formed"] for d in rows) / len(rows)),
            }
        assert sum(f["examples"] for f in report["by_style"].values()) == len(details)
        kinds = Counter(kind for d in details for kind in d["violations"])
        assert {k: n for k, n in report["violations"].items() if n} == dict(kinds)
        timing = json.loads((report_dir / "timing.json").read_text())["decode"]
        assert timing["seconds"] > 0
        assert timing["queries_per_s"] == pytest.approx(96 / timing["seconds"])

    def test_eval_reports_truncations(self, pipeline_dir, tmp_path, capsys):
        loaded = load_checkpoint(pipeline_dir / "ckpt" / "best")
        model = loaded.build_model()
        model.vocab_out.b.data[EOS_ID] = -1e4  # never stops: every output hits the cap
        save_checkpoint(tmp_path / "no_eos", model, loaded.symtab, loaded.source_vocab, {}, step=0)
        dev = pipeline_dir / "corpus" / "dev.jsonl"
        code = main(["eval", "--checkpoint", str(tmp_path / "no_eos"), "--input", str(dev),
                     "--beam", "2", "--report-dir", str(tmp_path / "report")])
        out, _ = capsys.readouterr()
        assert code == EXIT_OK
        decode = json.loads(out)["decode"]
        details = [json.loads(l) for l in (tmp_path / "report" / "details.jsonl").read_text().splitlines()]
        caps = [target_cap(len(ex.query.tokens)) for ex in read_jsonl(dev)]
        assert all(d["truncated"] for d in details)
        assert decode["truncated"] == len(details) == len(caps)
        assert decode["emitted_len_mean"] == pytest.approx(sum(caps) / len(caps))

    def test_predict_jsonl_schema(self, pipeline_dir, capsys):
        out_file = pipeline_dir / "preds.jsonl"
        code = main(
            [
                "predict",
                "--checkpoint", str(pipeline_dir / "ckpt"),
                "--input", str(pipeline_dir / "corpus" / "dev.jsonl"),
                "--out", str(out_file),
            ]
        )
        assert code == EXIT_OK
        rows = [json.loads(l) for l in out_file.read_text().strip().splitlines()]
        assert rows
        for row in rows:
            assert set(row) == {"query", "prediction", "score", "well_formed"}

    def test_predict_writes_a_null_prediction_for_a_query_with_no_result(self, pipeline_dir,
                                                                          tmp_path, capsys):
        limit = load_checkpoint(pipeline_dir / "ckpt" / "best").symtab.max_src_len
        long = " ".join(["word"] * (limit + 1))
        queries = ["", long, "play some music"]
        (tmp_path / "q.jsonl").write_text(
            "".join(json.dumps({"query": q, "style": "flat"}) + "\n" for q in queries))
        code = main(["predict", "--checkpoint", str(pipeline_dir / "ckpt"),
                     "--input", str(tmp_path / "q.jsonl"), "--beam", "2"])
        out, _ = capsys.readouterr()
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[:2] == [{"query": q, "prediction": None, "score": None, "well_formed": False}
                            for q in queries[:2]]
        assert rows[2]["prediction"] is not None and rows[2]["score"] < 0

    @pytest.mark.parametrize("flags, verdict", [([], None), (["--style", "flat"], False)])
    def test_predict_gives_a_query_with_no_result_a_verdict_only_under_a_style(
            self, pipeline_dir, tmp_path, capsys, flags, verdict):
        """Like a decoded query, one with no result is judged well-formed or
        not only when a style is known; here neither record names one."""
        limit = load_checkpoint(pipeline_dir / "ckpt" / "best").symtab.max_src_len
        queries = ["", " ".join(["word"] * (limit + 1)), "play some music"]
        (tmp_path / "q.jsonl").write_text("".join(json.dumps({"query": q}) + "\n" for q in queries))
        code = main(["predict", "--checkpoint", str(pipeline_dir / "ckpt"),
                     "--input", str(tmp_path / "q.jsonl"), *flags])
        out, _ = capsys.readouterr()
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.splitlines()]
        assert [row["prediction"] is None for row in rows] == [True, True, False]
        assert [row["well_formed"] for row in rows[:2]] == [verdict, verdict]
        assert (rows[2]["well_formed"] is None) == (verdict is None)

    def test_eval_and_predict_keep_only_the_best_result(self, pipeline_dir, tmp_path,
                                                         monkeypatch, capsys):
        """Searching for one best result per query writes the bytes a search
        for full pools writes, and steps fewer decoder rows."""
        rows = []

        def step(self, cache, tokens):
            rows.append(cache.rows)
            return real_step(self, cache, tokens)

        real_step = PointerGeneratorModel.step
        monkeypatch.setattr(PointerGeneratorModel, "step", step)
        ckpt, dev = str(pipeline_dir / "ckpt"), str(pipeline_dir / "corpus" / "dev.jsonl")
        written, stepped = [], []
        for run in ("best", "full"):
            if run == "full":
                monkeypatch.setattr(cli, "_beam_config", lambda args: BeamConfig(args.beam))
            rows.clear()
            out = tmp_path / run
            assert main(["eval", "--checkpoint", ckpt, "--input", dev, "--beam", "4",
                         "--report-dir", str(out)]) == EXIT_OK
            assert main(["predict", "--checkpoint", ckpt, "--input", dev, "--beam", "4",
                         "--out", str(out / "predictions.jsonl")]) == EXIT_OK
            written.append([(out / name).read_bytes()
                            for name in ("report.json", "details.jsonl", "predictions.jsonl")])
            stepped.append(sum(rows))
        assert written[0] == written[1]
        assert stepped[0] < stepped[1]

    def test_eval_defaults_report_into_checkpoint(self, pipeline_dir, tmp_path, capsys):
        """On a copy of ``best``, so the shared checkpoint gets no report."""
        best = tmp_path / "best"
        shutil.copytree(pipeline_dir / "ckpt" / "best", best)
        code = main(["eval", "--checkpoint", str(best),
                     "--input", str(pipeline_dir / "corpus" / "dev.jsonl")])
        assert code == EXIT_OK
        assert (best / "eval" / "report.json").exists()
        assert not (pipeline_dir / "ckpt" / "best" / "eval").exists()

    def test_eval_reports_into_the_checkpoint_it_decoded(self, pipeline_dir, tmp_path,
                                                         monkeypatch):
        """A checkpoint saved while ``eval`` decodes does not receive the
        report of the one it loaded."""
        root = tmp_path / "run"
        shutil.copytree(pipeline_dir / "ckpt" / "best", root / "step_000001")

        def decode_while_saving(*args, **kwargs):
            shutil.copytree(root / "step_000001", root / "step_000002")
            return real_decode(*args, **kwargs)

        real_decode = cli.decode_sources
        monkeypatch.setattr(cli, "decode_sources", decode_while_saving)
        assert main(["eval", "--checkpoint", str(root),
                     "--input", str(pipeline_dir / "corpus" / "dev.jsonl")]) == EXIT_OK
        assert (root / "step_000001" / "eval" / "report.json").exists()
        assert not (root / "step_000002" / "eval").exists()

    def test_truncated_params_is_data_error(self, pipeline_dir, tmp_path, capsys):
        broken = tmp_path / "ckpt"
        shutil.copytree(pipeline_dir / "ckpt" / "best", broken)
        blob = broken / "params.bin"
        blob.write_bytes(blob.read_bytes()[: blob.stat().st_size // 2])
        code = main(["eval", "--checkpoint", str(broken),
                     "--input", str(pipeline_dir / "corpus" / "dev.jsonl"),
                     "--report-dir", str(tmp_path / "report")])
        _, err = capsys.readouterr()
        assert code == EXIT_DATA
        assert json.loads(err)["error"] == "CheckpointError"

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_symbol_table_short_of_the_model_config_exits_2(self, pipeline_dir, tmp_path,
                                                            command, capsys):
        """A checkpoint whose symtab.json lost its last symbol would read the
        ids past it as pointers; it is refused before decoding."""
        broken = tmp_path / "ckpt"
        shutil.copytree(pipeline_dir / "ckpt" / "best", broken)
        symtab = json.loads((broken / "symtab.json").read_text())
        symtab["symbols"].pop()
        (broken / "symtab.json").write_text(json.dumps(symtab))
        out = ["--report-dir", str(tmp_path / "report")] if command == "eval" else [
            "--out", str(tmp_path / "out.jsonl")]
        code = main([command, "--checkpoint", str(broken),
                     "--input", str(pipeline_dir / "corpus" / "dev.jsonl"), *out])
        _, err = capsys.readouterr()
        assert code == EXIT_DATA
        failure = json.loads(err)
        assert failure["error"] == "CheckpointError"
        assert "vocab_size" in failure["message"]
        assert not (tmp_path / "report").exists() and not (tmp_path / "out.jsonl").exists()

    def test_beam_one_gives_greedy_predictions(self, pipeline_dir, tmp_path):
        """``eval --beam 1`` decodes in padded chunks of ``DECODE_ROWS``
        queries, bit-equal to ``greedy_batch`` on the same chunks.  Against
        one query at a time the ids are equal and the score is within 1e-4,
        because padding and batch shape change float32 rounding."""
        dev = pipeline_dir / "corpus" / "dev.jsonl"
        code = main(["eval", "--checkpoint", str(pipeline_dir / "ckpt" / "best"),
                     "--input", str(dev), "--beam", "1", "--report-dir", str(tmp_path)])
        assert code == EXIT_OK
        loaded = load_checkpoint(pipeline_dir / "ckpt" / "best")
        model = loaded.build_model()
        details = [json.loads(line) for line in (tmp_path / "details.jsonl").read_text().splitlines()]
        examples = read_jsonl(dev)
        assert len(details) == len(examples)
        sources = [loaded.source_vocab.encode(ex.query.tokens) for ex in examples]
        chunked = []
        for lo in range(0, len(sources), DECODE_ROWS):
            chunked += greedy_batch(model, *pad_sources(sources[lo : lo + DECODE_ROWS]))
        for detail, src, batched in zip(details, sources, chunked):
            assert detail["prediction"] == loaded.symtab.decode(batched.ids).to_string()
            assert detail["score"] == batched.score
            alone = greedy(model, np.asarray(src, dtype=np.int64))
            assert batched.ids == alone.ids
            assert batched.score == pytest.approx(alone.score, abs=1e-4)

    def test_each_command_chunks_by_its_own_beam(self, pipeline_dir, tmp_path, monkeypatch):
        """``eval --beam k`` and ``predict --beam k`` hand ``decode_sources``
        their beam size and ``exact_match_rate`` a beam of one, so a chunk
        holds ``DECODE_ROWS // k`` queries (here under a budget of 8 rows)."""
        examples = read_jsonl(pipeline_dir / "corpus" / "train.jsonl")[:11]
        write_jsonl(tmp_path / "eleven.jsonl", examples)
        checkpoint = str(pipeline_dir / "ckpt" / "best")
        chunks = []

        def pad(sources):
            chunks.append(len(sources))
            return real_pad(sources)

        real_pad = decoding.pad_sources
        monkeypatch.setattr(decoding, "pad_sources", pad)
        monkeypatch.setattr(decoding, "DECODE_ROWS", 8)
        plans = {1: [8, 3], 2: [4, 4, 3], 4: [2, 2, 2, 2, 2, 1]}
        for command, beam in [("eval", 1), ("eval", 2), ("eval", 4), ("predict", 4)]:
            chunks.clear()
            out = ["--report-dir", str(tmp_path / "report")] if command == "eval" else [
                "--out", str(tmp_path / "predictions.jsonl")]
            assert main([command, "--checkpoint", checkpoint, "--input",
                         str(tmp_path / "eleven.jsonl"), "--beam", str(beam), *out]) == EXIT_OK
            assert chunks == plans[beam], (command, beam)
        chunks.clear()
        loaded = load_checkpoint(checkpoint)
        exact_match_rate(loaded.build_model(), examples, loaded.symtab, loaded.source_vocab)
        assert chunks == plans[1]

    def test_no_child_outlives_eval_or_predict(self, pipeline_dir, tmp_path, monkeypatch, capsys):
        """Under a budget of 8 rows, beam 4 decodes 11 queries in 6 chunks,
        in worker processes where the host has 2 CPUs.  None is left once
        ``eval`` or ``predict`` returns, nor after a chunk fails in one."""
        examples = read_jsonl(pipeline_dir / "corpus" / "train.jsonl")[:11]
        write_jsonl(tmp_path / "eleven.jsonl", examples)
        monkeypatch.setattr(decoding, "DECODE_ROWS", 8)
        common = ["--checkpoint", str(pipeline_dir / "ckpt" / "best"),
                  "--input", str(tmp_path / "eleven.jsonl"), "--beam", "4"]
        assert main(["eval", *common, "--report-dir", str(tmp_path / "report")]) == EXIT_OK
        assert no_child_process()
        assert main(["predict", *common, "--out", str(tmp_path / "out.jsonl")]) == EXIT_OK
        assert no_child_process()

        def failing(*args, **kwargs):
            raise RuntimeError(f"decoding failed in process {os.getpid()}")

        monkeypatch.setattr(cli, "beam_search_batch", failing)
        capsys.readouterr()
        assert main(["eval", *common, "--report-dir", str(tmp_path / "failed")]) == cli.EXIT_RUNTIME
        failure = json.loads(capsys.readouterr().err)
        assert failure["error"] == "RuntimeError"
        assert failure["message"].startswith("decoding failed in process ")
        assert no_child_process()

    def test_empty_query_is_a_miss_in_eval_as_in_dev_tracking(self, pipeline_dir, tmp_path):
        """``eval --beam 1`` and ``exact_match_rate`` decode the same chunks,
        skip the same empty queries and score them as misses."""
        examples = read_jsonl(pipeline_dir / "corpus" / "train.jsonl")[:63]
        empty = CorpusExample(Query.from_text(""),
                              SemanticParse(ParseNode("x", Kind.INTENT), Style.FLAT))
        mixed = examples[:7] + [empty] + examples[7:] + [empty]
        write_jsonl(tmp_path / "mixed.jsonl", mixed)
        code = main(["eval", "--checkpoint", str(pipeline_dir / "ckpt" / "best"),
                     "--input", str(tmp_path / "mixed.jsonl"), "--beam", "1",
                     "--report-dir", str(tmp_path / "report")])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "report" / "report.json").read_text())
        details = (tmp_path / "report" / "details.jsonl").read_text().splitlines()
        skipped = json.loads(details[7])
        assert (skipped["prediction"], skipped["score"], skipped["exact"]) == (None, None, False)
        loaded = load_checkpoint(pipeline_dir / "ckpt" / "best")
        em = exact_match_rate(loaded.build_model(), mixed, loaded.symtab, loaded.source_vocab)
        assert report["em_accuracy"] == em < 1.0
        assert em > 0.5

    def test_a_query_with_no_result_is_a_miss_even_against_an_empty_gold(self, pipeline_dir,
                                                                          tmp_path):
        """A query that cannot be decoded (empty, or over ``max_src_len``) is
        a miss and not well-formed, even when its gold is an empty span-set
        parse, which an empty prediction would match."""
        limit = load_checkpoint(pipeline_dir / "ckpt" / "best").symtab.max_src_len
        nothing = SemanticParse(ParseNode("", Kind.GROUP), Style.SPANSET)
        undecodable = [CorpusExample(Query.from_text(" ".join(["word"] * (limit + 1))), nothing),
                       CorpusExample(Query.from_text(""), nothing)]
        write_jsonl(tmp_path / "undecodable.jsonl", undecodable)
        code = main(["eval", "--checkpoint", str(pipeline_dir / "ckpt" / "best"),
                     "--input", str(tmp_path / "undecodable.jsonl"), "--beam", "2",
                     "--report-dir", str(tmp_path / "report")])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "report" / "report.json").read_text())
        assert (report["em_accuracy"], report["well_formed_rate"]) == (0.0, 0.0)
        assert report["by_style"] == {"spanset": {"examples": 2, "em_accuracy": 0.0,
                                                  "well_formed_rate": 0.0}}
        assert set(report["violations"].values()) == {0}
        details = [json.loads(line) for line in
                   (tmp_path / "report" / "details.jsonl").read_text().splitlines()]
        assert details == [{"index": i, "style": "spanset", "prediction": None, "score": None,
                            "truncated": False, "exact": False, "well_formed": False,
                            "intent_match": None, "first_divergence": 0, "violations": []}
                           for i in range(2)]

    def test_flipped_params_byte_is_data_error(self, pipeline_dir, tmp_path, capsys):
        broken = tmp_path / "ckpt"
        shutil.copytree(pipeline_dir / "ckpt" / "best", broken)
        blob = broken / "params.bin"
        raw = bytearray(blob.read_bytes())
        raw[len(raw) // 3] ^= 0x01  # same size, still a valid float32
        blob.write_bytes(bytes(raw))
        code = main(["eval", "--checkpoint", str(broken),
                     "--input", str(pipeline_dir / "corpus" / "dev.jsonl"),
                     "--report-dir", str(tmp_path / "report")])
        _, err = capsys.readouterr()
        assert code == EXIT_DATA
        assert json.loads(err)["error"] == "CheckpointError"

    @pytest.mark.parametrize("beam", ["0", "257"])
    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_beam_outside_one_to_256_is_usage_error(self, tmp_path, command, beam, capsys):
        """``--beam`` is refused before the checkpoint loads: there is none."""
        code = main([command, "--checkpoint", str(tmp_path / "none"),
                     "--input", str(tmp_path / "none.jsonl"), "--beam", beam])
        _, err = capsys.readouterr()
        assert code == EXIT_USAGE
        failure = json.loads(err)
        assert failure["error"] == "UsageError" and "1 to 256" in failure["message"]
