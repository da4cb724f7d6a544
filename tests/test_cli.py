import io
import json
import shutil

import numpy as np
import pytest

from pointerparse.checkpoint import load_checkpoint, save_checkpoint
from pointerparse.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    build_configs,
    load_flat_config,
    main,
)
from pointerparse.data import DataError, read_jsonl
from pointerparse.decoding import greedy, greedy_batch, pad_sources, target_cap
from pointerparse.vocab import EOS_ID

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


class TestUsageAndErrors:
    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["generate"]) == EXIT_USAGE

    def test_missing_file_is_data_error(self, capsys):
        code = main(["import", "--format", "top", "--tsv", "/nonexistent.tsv", "--out", "/tmp/x.jsonl"])
        assert code == EXIT_DATA

    def test_bio_format_requires_triple(self, capsys):
        code = main(["import", "--format", "bio", "--out", "/tmp/x.jsonl"])
        assert code == EXIT_USAGE


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

    def test_unknown_key_rejected(self):
        with pytest.raises(Exception):
            build_configs({"model.bogus_field": 1}, {})

    def test_beam_config_section_rejected(self):
        with pytest.raises(DataError):
            build_configs({"beam.beam_size": 4}, {})


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
        assert manifest["format_version"] == 2
        assert set(manifest["blobs"]) == {"params.bin", "optstate.bin"}
        for name, record in manifest["blobs"].items():
            assert record["bytes"] == (found[0] / name).stat().st_size
            assert len(record["sha256"]) == 64
        assert "model_config" in manifest and "train_config" in manifest
        assert (found[0] / "symtab.json").exists()
        assert (found[0] / "source_vocab.json").exists()

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

    def test_eval_defaults_report_into_checkpoint(self, pipeline_dir, capsys):
        code = main(
            [
                "eval",
                "--checkpoint", str(pipeline_dir / "ckpt" / "best"),
                "--input", str(pipeline_dir / "corpus" / "dev.jsonl"),
            ]
        )
        assert code == EXIT_OK
        assert (pipeline_dir / "ckpt" / "best" / "eval" / "report.json").exists()

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

    def test_beam_one_gives_greedy_predictions(self, pipeline_dir, tmp_path):
        """``eval`` decodes in padded chunks of 64 queries: ``--beam 1`` is
        bit-equal to ``greedy_batch`` on the same chunk.  Against one query
        at a time the ids are equal and the score is within 1e-4, because
        padding and batch shape change float32 rounding."""
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
        for lo in range(0, len(sources), 64):
            chunked += greedy_batch(model, *pad_sources(sources[lo : lo + 64]))
        for detail, src, batched in zip(details, sources, chunked):
            assert detail["prediction"] == loaded.symtab.decode(batched.ids).to_string()
            assert detail["score"] == batched.score
            alone = greedy(model, np.asarray(src, dtype=np.int64))
            assert batched.ids == alone.ids
            assert batched.score == pytest.approx(alone.score, abs=1e-4)

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

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_beam_below_one_is_usage_error(self, pipeline_dir, command, capsys):
        code = main([command, "--checkpoint", str(pipeline_dir / "ckpt" / "best"),
                     "--input", str(pipeline_dir / "corpus" / "dev.jsonl"), "--beam", "0"])
        _, err = capsys.readouterr()
        assert code == EXIT_USAGE
        assert json.loads(err)["error"] == "UsageError"
