"""A mutation table: one-line breaks of the invariants the suite must catch,
each with the tests that must fail on it, and a runner.

    PYTHONPATH=src python tests/mutants.py [NAME ...]

For each mutant alone (or each one named), the runner copies ``src/``,
``tests/`` and ``pyproject.toml`` into a fresh ``tempfile.mkdtemp()``
directory, replaces the mutant's old text with its new text there, and runs
only the mutant's tests, with ``-x``, in one child ``python -m pytest`` in
that directory, with the copy of ``src/`` first on ``PYTHONPATH``; one child
runs at a time.  The tests are copied too because some start a child
``python -m pointerparse.cli`` with their own checkout's ``src/`` first on
its path.  A mutant is killed when its tests fail, and survives
when they pass.  The runner prints each outcome with its wall time and exits
1 if any mutant survives or its child cannot run the tests.
``tests/test_tooling.py`` checks, without running any mutant, that each old
text occurs exactly once in its file and that each test id names a test, so
an edit that moves a mutant's target fails Tier-1.  The file name keeps
pytest from collecting this module.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # under src/pointerparse
    old: str   # occurs exactly once in the file
    new: str
    breaks: str  # the invariant the new text breaks
    tests: tuple[str, ...]  # node ids of which at least one must fail


_DEC = "tests/test_decoding.py"
_MODEL = "tests/test_model.py"
_TRAIN = "tests/test_training.py"
_KILLED_RUN = "tests/test_checkpoint.py::test_a_killed_training_run_resumes_to_its_twins_bytes"

MUTANTS = (
    # The batched beam search.
    Mutant("beam_cap_off_by_one", "decoding.py",
           "(emitted.shape[1] + 1 >= caps[live])", "(emitted.shape[1] >= caps[live])",
           "a hypothesis retires truncated at exactly 2n + 16 emitted symbols",
           (f"{_DEC}::TestGreedy::test_truncation_flag_at_cap",
            f"{_DEC}::TestBatchedBeamSearch::test_no_eos_truncates_each_query_at_its_own_cap")),
    Mutant("bos_not_banned", "decoding.py",
           "ban[:, [PAD_ID, BOS_ID]] = -np.inf", "ban[:, [PAD_ID]] = -np.inf",
           "BOS is never emitted",
           (f"{_DEC}::TestGreedy::test_output_never_contains_banned_ids",)),
    Mutant("scores_not_accumulated", "decoding.py",
           "totals += scores.reshape(live.size, h, 1)", "totals += 0.0",
           "a hypothesis scores the sum of its log-probabilities",
           (f"{_DEC}::TestBeamSearch::test_scores_match_teacher_forced_recompute",
            f"{_DEC}::TestBeamSearch::test_matches_brute_force_enumeration")),
    Mutant("pointer_ban_at_padded_width", "decoding.py",
           "np.arange(width) < v + lengths[:, None]", "np.arange(width) < width + 0 * lengths[:, None]",
           "each query bans the pointers at or past its own length",
           (f"{_DEC}::TestBatchedBeamSearch::test_a_short_query_emits_no_pointer_past_its_length",)),
    Mutant("scores_summed_in_float32", "decoding.py",
           "model.step(cache, tokens).log_probs.astype(np.float64)",
           "model.step(cache, tokens).log_probs.astype(np.float32)",
           "a hypothesis's score sums its log-probabilities in float64, as brute force does",
           (f"{_DEC}::TestBeamSearch::test_matches_brute_force_enumeration",)),
    Mutant("beam_one_keeps_closures", "decoding.py",
           "if k >= 2:", "if k >= 1:",
           "beam 1 is greedy decoding: it follows the argmax path and stops at EOS",
           (f"{_DEC}::TestBatchedBeamSearch::test_greedy_and_greedy_batch_match_an_argmax_reference",
            f"{_DEC}::TestGreedy::test_beam_one_equals_greedy_exactly")),
    Mutant("pool_floor_is_the_best_score", "decoding.py",
           "floor[q] = pools[q][-1].score", "floor[q] = pools[q][0].score",
           "the early stop and the pool's floor change no result",
           (f"{_DEC}::TestBeamSearch::test_matches_a_reference_search_without_early_stop",)),
    Mutant("encode_inside_the_search", "decoding.py",
           "    while live.size:\n",
           "    while live.size:\n        model.encode(src_ids, src_mask)\n",
           "a query is encoded once, not once per step",
           (f"{_DEC}::TestBatchedBeamSearch::test_a_batch_is_encoded_once",)),
    # Teacher-forced batches and their order.
    Mutant("eos_one_column_early", "training.py",
           "gold[np.arange(batch), tgt_mask.sum(axis=1)] = EOS_ID",
           "gold[np.arange(batch), tgt_mask.sum(axis=1) - 1] = EOS_ID",
           "gold holds EOS at each row's own length",
           (f"{_TRAIN}::TestBatchLayout::test_make_batch_on_unequal_lengths_and_an_empty_target",)),
    Mutant("every_pointer_in_the_support", "training.py",
           "support[:, vocab_size:] = src_mask", "support[:, vocab_size:] = True",
           "the smoothing support holds only the pointers inside the query",
           (f"{_TRAIN}::TestBatchLayout::test_make_batch_on_unequal_lengths_and_an_empty_target",)),
    Mutant("windows_sorted_descending", "training.py",
           'w[np.argsort(lengths[w], kind="stable")]', 'w[np.argsort(-lengths[w], kind="stable")]',
           "each window of a shuffle is stable-sorted by ascending source length",
           (f"{_TRAIN}::TestBatchLayout::test_epoch_plan_buckets_a_shuffle_by_length",)),
    # The encoder and the cached decoder step.
    Mutant("positions_indexed_by_row", "model.py",
           "self.enc_positions.data[packing.real[1]]", "self.enc_positions.data[packing.real[0]]",
           "each source token gets the position of its column",
           (f"{_MODEL}::test_each_example_of_a_padded_batch_gets_its_logits_alone",
            f"{_MODEL}::test_padding_does_not_leak_into_real_rows")),
    Mutant("embedding_scale_reassociated", "model.py",
           "embed *= np.float32(math.sqrt(self.config.d_dec))",
           "embed[...] = embed.astype(np.float64) * math.sqrt(self.config.d_dec)",
           "the step scales the target embedding as training does, bit for bit",
           ("tests/test_golden.py::test_acceptance_model_matches_its_golden_record",)),
    Mutant("nonzero_padding_per_head", "autodiff.py",
           "        out = self.scatter(a)\n", "        out = self.scatter(a) + 1\n",
           "the per-head layout and the cached keys and values hold zeros at padding",
           ("tests/test_autodiff.py::TestPacking::test_heads_lays_packed_rows_out_per_head",
            f"{_MODEL}::test_packed_encoder_matches_the_tape_encoder_bit_for_bit")),
    Mutant("strided_cross_attention_cache", "model.py",
           "return np.ascontiguousarray(np.stack(", "return (np.stack(",
           "the cached cross-attention keys and values are C-ordered",
           (f"{_MODEL}::test_cached_cross_attention_keys_and_values_are_c_ordered",)),
    Mutant("step_reads_the_previous_position", "model.py",
           "self.dec_positions.data[t]", "self.dec_positions.data[max(t - 1, 0)]",
           "a cached step matches teacher forcing to 1e-5",
           (f"{_MODEL}::test_teacher_forcing_matches_stepwise_decoding",
            f"{_MODEL}::test_cached_steps_match_teacher_forcing_up_to_the_cap")),
    # Resuming training.
    Mutant("log_records_kept_on_resume", "training.py",
           "_drop_records_after(log_path, start_step)", "pass",
           "a resumed run keeps one log record per step",
           (_KILLED_RUN,)),
    Mutant("dropout_counter_off_by_one", "training.py",
           "counter=loaded.dropout_counter)", "counter=loaded.dropout_counter + 1)",
           "a resumed run draws the dropout masks its twin draws",
           (_KILLED_RUN,)),
    Mutant("adam_step_count_reset", "training.py",
           "AdamState(step=loaded.opt_step,", "AdamState(step=0,",
           "resumed training is bit-identical to an uninterrupted run",
           (f"{_TRAIN}::TestTrainLoop::test_resume_is_bit_identical",)),
    # Checkpoints, exit codes and the package's own rules.
    Mutant("parent_fsynced_before_the_rename", "checkpoint.py",
           "    os.replace(partial, directory)\n    _fsync(directory.parent)",
           "    _fsync(directory.parent)\n    os.replace(partial, directory)",
           "a save fsyncs its files, renames, then fsyncs the parent directory",
           ("tests/test_checkpoint.py::test_save_fsyncs_before_the_rename_and_the_parent_after",)),
    Mutant("undecodable_input_exits_3", "cli.py",
           "    UnicodeDecodeError,\n", "",
           "a data error exits 2, not 3",
           ("tests/test_cli.py::test_malformed_record_is_data_error[linearize-not UTF-8]",)),
    Mutant("assert_under_src", "decoding.py",
           "    if not 1 <= beam_size <= DECODE_ROWS:\n        raise ValueError(",
           "    assert 1 <= beam_size <= DECODE_ROWS\n    if False:\n        raise ValueError(",
           "no invariant rests on assert, which python -O strips",
           ("tests/test_tooling.py::test_no_assert_statements_in_the_package",)),
    # Attention.
    Mutant("padding_keys_not_blocked", "autodiff.py",
           "blocked = ~kv_packing.mask[:, None, None, :]",
           "blocked = kv_packing.mask[:, None, None, :] & False",
           "attention gives padding keys no weight",
           ("tests/test_autodiff.py::TestAttention::test_a_query_with_no_real_key_gets_a_zero_context",)),
    Mutant("causal_ignored", "autodiff.py",
           "    if causal:\n", "    if False:\n",
           "a causal query sees no later key",
           ("tests/test_autodiff.py::TestAttention::test_a_causal_query_sees_no_later_key",)),
    Mutant("add_broadcasts", "autodiff.py",
           '_same_shape("add", a.data, b.data)', "pass",
           "no tape op broadcasts",
           ("tests/test_autodiff.py::test_no_op_broadcasts",)),
    # One owner for each tape convention.
    Mutant("parameters_get_a_zero_buffer", "autodiff.py",
           "        self.grad: Optional[Array] = None\n",
           "        self.grad: Optional[Array] = np.zeros_like(arr) if requires_grad else None\n",
           "a parameter has no gradient until a backward writes one",
           ("tests/test_autodiff.py::TestBackwardBasics"
            "::test_a_parameter_has_no_grad_until_backward_writes_one",
            "tests/test_autodiff.py::TestBackwardBasics::test_unreachable_parameter_gets_no_grad")),
    Mutant("adam_leaves_a_missing_gradient", "training_ops.py",
           "            p.grad = np.zeros_like(p.data)\n", "            pass\n",
           "adam_step reads a missing gradient as zeros",
           ("tests/test_autodiff.py::TestBackwardBasics::test_unreachable_parameter_gets_no_grad",
            f"{_TRAIN}::TestAdam::test_zero_gradient_leaves_parameters")),
    Mutant("heads_interleaved", "autodiff.py",
           ".reshape(self.shape + (heads, a.shape[-1] // heads))",
           ".reshape(self.shape + (a.shape[-1] // heads, heads)).swapaxes(-1, -2)",
           "head i holds columns i*d/heads to (i+1)*d/heads of a packed row",
           ("tests/test_autodiff.py::TestPacking::test_heads_lays_packed_rows_out_per_head",
            "tests/test_autodiff.py::TestAttention::test_matches_composed_ops")),
    Mutant("softmax_normalizer_in_float32", "autodiff.py",
           "x /= np.add.reduce(x, axis=-1, keepdims=True, dtype=np.float64)",
           "x /= np.add.reduce(x, axis=-1, keepdims=True, dtype=np.float32)",
           "the float32 softmax sums its normalizer in float64",
           ("tests/test_autodiff.py::TestForwardValues"
            "::test_softmax_kernel_is_the_float64_normalized_formula",)),
    # Paths, vocabularies and the beam width.
    Mutant("file_for_a_directory_exits_3", "cli.py",
           "    FileExistsError,\n", "",
           "a path naming a file where a directory belongs exits 2",
           ("tests/test_cli.py::TestUsageAndErrors::test_a_file_where_a_directory_belongs_is_data_error",)),
    Mutant("symtab_specials_unchecked", "vocab.py",
           "if symbols[:len(_SPECIALS)] != _SPECIALS:", "if False:",
           "a loaded symbol table starts <pad> <bos> <eos>",
           ("tests/test_vocab.py::test_symbol_table_from_json_refuses_a_table_it_did_not_write",)),
    Mutant("source_vocab_repeats_a_reserved_word", "vocab.py",
           "tuple(sorted(vocab - {PAD_WORD, UNK_WORD}))", "tuple(sorted(vocab))",
           "a source vocabulary lists each word once",
           ("tests/test_vocab.py::test_source_vocab_lists_the_reserved_words_once",)),
    Mutant("beam_wider_than_the_row_budget", "decoding.py",
           "if not 1 <= beam_size <= DECODE_ROWS:", "if not 1 <= beam_size:",
           "no beam is wider than DECODE_ROWS, so no chunk holds more rows",
           (f"{_DEC}::TestBeamSearch::test_beam_size_validation",
            f"{_DEC}::TestBatchedBeamSearch::test_decode_sources_pads_chunks_in_order")),
)

# Mutants whose target the code no longer has, each with the reason.
RETIRED = {
    "linear_after_unpack_in_heads": "applied the Linear after `unpack` in "
    "`MultiHeadAttention._heads`, which is gone: attention takes packed rows "
    "and lays them out per head itself (`Packing.heads`), after the Linears.",
}


def apply(mutant: Mutant, src: Path) -> None:
    """Write ``mutant`` into the package under ``src``."""
    path = src / "pointerparse" / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: the old text occurs {text.count(mutant.old)} times "
                         f"in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new))


def run(mutant: Mutant) -> tuple[str, float, str]:
    """``killed``, ``survived`` or ``error``, the wall time and the child's
    output tail."""
    scratch = Path(tempfile.mkdtemp(prefix="mutant-"))
    try:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, scratch / part,
                            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        shutil.copy(ROOT / "pyproject.toml", scratch)
        apply(mutant, scratch / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(scratch / "src"), os.environ.get("PYTHONPATH")])))
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               *mutant.tests], cwd=scratch, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    outcome = {0: "survived", 1: "killed"}.get(done.returncode, "error")
    return outcome, seconds, (done.stdout + done.stderr)[-1500:]


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 1
    counts = {"killed": 0, "survived": 0, "error": 0}
    started = time.perf_counter()
    for mutant in chosen:
        outcome, seconds, tail = run(mutant)
        counts[outcome] += 1
        print(f"{outcome:<8} {seconds:6.1f} s  {mutant.name}: {mutant.breaks}", flush=True)
        if outcome != "killed":
            print(tail)
    for name, reason in RETIRED.items():
        print(f"retired            {name}: {reason}")
    print(f"{counts['killed']}/{len(chosen)} killed, {counts['survived']} survived, "
          f"{counts['error']} could not run, in {time.perf_counter() - started:.0f} s")
    return 0 if counts["killed"] == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
