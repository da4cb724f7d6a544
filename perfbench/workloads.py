"""The benchmark's two workloads: corpora, models and timed phases.

``train_eval`` trains at the acceptance config and then decodes short,
EOS-terminated outputs with the model it produced.  ``decode_long`` decodes
25-40 token queries with an untrained model whose outputs all run to the
``2n + 16`` cap, so the prefix recompute in ``decode_step`` dominates.  Both
run the same phases: ``train``, ``eval`` (the ``pointerparse eval`` command),
``greedy`` (``exact_match_rate``, the dev-tracking path) and ``interactive``
(a one-client closed loop over ``beam_search``).
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from pointerparse import autodiff, checkpoint, cli, data, decoding, training
from tracing import patched
from pointerparse.data import CorpusExample, SyntheticGrammar, default_grammar
from pointerparse.model import ModelConfig, PointerGeneratorModel
from pointerparse.vocab import EOS_ID

ACCEPTANCE_SEED = 17  # corpus and training seed of the acceptance config
TRAIN_SEED = ACCEPTANCE_SEED
DECODE_INIT_SEED = 0
EOS_BAN_BIAS = -1e4  # decode_long's model never emits EOS, so every output hits the cap


@dataclass(frozen=True)
class Scale:
    corpus_size: int
    model: dict
    batch_size: int
    warmup_steps: int
    train_steps: int
    checkpoint_every: int
    long_corpus_size: int
    long_batch_size: int
    long_train_steps: int
    long_lengths: tuple[int, ...]
    em_floor: float  # beam-4 exact match the train_eval model must reach
    check_samples: int  # queries compared between beam 1 and greedy
    min_rounds: int  # least rounds of the decode phases (eval, greedy, one client pass)
    trace_train_steps: int  # training steps the traced pass repeats
    probe_batches: int = 4  # training batches the loss is measured on


FULL = Scale(
    corpus_size=1000,
    model=dict(d_model=128, n_enc_layers=2, n_enc_heads=4, enc_ffn=256,
               d_dec=128, n_dec_layers=2, n_dec_heads=4, dec_ffn=256, dropout=0.1),
    batch_size=32,
    warmup_steps=600,
    train_steps=300,
    checkpoint_every=50,
    long_corpus_size=400,
    long_batch_size=8,
    long_train_steps=120,
    long_lengths=tuple(range(25, 41, 2)),
    em_floor=0.5,
    check_samples=8,
    min_rounds=2,
    trace_train_steps=60,
)

TINY = Scale(
    corpus_size=100,
    model=dict(d_model=32, n_enc_layers=1, n_enc_heads=4, enc_ffn=64,
               d_dec=32, n_dec_layers=1, n_dec_heads=4, dec_ffn=64, dropout=0.1),
    batch_size=8,
    warmup_steps=10,
    train_steps=12,
    checkpoint_every=5,
    long_corpus_size=200,
    long_batch_size=8,
    long_train_steps=6,
    long_lengths=(25, 27),
    em_floor=0.0,
    check_samples=2,
    min_rounds=1,
    trace_train_steps=4,
    probe_batches=2,
)

SCALES = {"full": FULL, "tiny": TINY}


def long_grammar() -> SyntheticGrammar:
    """Long templates over ``default_grammar()`` lexicons, so gold parses exist."""
    flat = (
        ("play_music", "please play {song_name:song} by {artist_name:artist} and after that play "
         "{next_song:song} by {next_artist:artist} and then finish with {last_song:song} by "
         "{last_artist:artist} in the kitchen tonight while we cook dinner"),
        ("book_restaurant", "could you book a table at {restaurant} for {party_size} people at "
         "{booking_time:time} tonight and if that is full try {backup:restaurant} for "
         "{backup_size:party_size} at {backup_time:time} instead of waiting"),
        ("add_to_list", "add {item} and {second_item:item} and {third_item:item} to my {list_name} "
         "list and also put {fourth_item:item} on the {other_list:list_name} list before i "
         "forget about it again today"),
        ("get_weather", "what is the weather going to be like in {city} tomorrow morning and will "
         "it rain in {second_city:city} or in {third_city:city} later in the week when i am "
         "driving there for the game on saturday with all my friends"),
    )
    tree = (
        "[IN:GET_DIRECTIONS i need the fastest directions from here to [SL:DESTINATION "
        "[IN:GET_LOCATION_HOME the home of {contact} ] ] and then on from there to "
        "[SL:WAYPOINT {place} ] avoiding the highway and all the toll roads along the way "
        "because my car is old please ]",
        "[IN:GET_DISTANCE tell me how far it is from where i am right now to [SL:DESTINATION "
        "[IN:GET_RESTAURANT_LOCATION the {food} place ] ] near [SL:LOCATION {place} ] if i "
        "walk there slowly with my dog after work tonight and stop for a coffee ]",
        "[IN:GET_EVENT are there any [SL:CATEGORY_EVENT {event} ] events or maybe "
        "[SL:SECOND_CATEGORY {event} ] shows happening in [SL:LOCATION {city} ] this coming "
        "weekend that i could go to with the whole family and my two best friends ]",
    )
    sets = (("Diagnosis_Event", ("a", "b")), ("Body_Site", ("s",)),
            ("Second_Event", ("c", "d")), ("Second_Site", ("t",)))
    spanset = (
        ("the pt was diagnosed with {a:diag_a} {s:site} {b:diag_b} today and the notes from the "
         "round also indicate {c:diag_a} {t:site} {d:diag_b} after the procedure this week", sets),
        ("chart shows {a:diag_a} {s:site} {b:diag_b} on admission and imaging later found "
          "{c:diag_a} {t:site} {d:diag_b} which was treated on the ward before the patient went "
         "home with her daughter that evening", sets),
    )
    return SyntheticGrammar(
        lexicons=default_grammar().lexicons,
        flat_templates=flat,
        tree_templates=tree,
        spanset_templates=spanset,
    )


@dataclass
class Prepared:
    """Inputs and configs shared by every phase of one workload run."""

    workload: str
    workdir: Path
    train_examples: list[CorpusExample]
    queries: list[CorpusExample]
    queries_path: Path
    warm_path: Path  # one query per distinct source length
    symtab: object
    source_vocab: object
    model_config: ModelConfig
    train_config: training.TrainConfig
    probe: list  # training batches the loss is measured on
    client_order: list[int]  # the order the interactive client sends the queries in
    initial_loss: float = math.nan
    decode_model: Optional[PointerGeneratorModel] = None
    eval_checkpoint: Optional[Path] = None

    @property
    def sources(self) -> list[np.ndarray]:
        """Encoded queries in the client's order (decodable lengths only)."""
        limit = self.model_config.max_src_len
        return [
            np.asarray(self.source_vocab.encode(ex.query.tokens), dtype=np.int64)
            for ex in (self.queries[i] for i in self.client_order)
            if 1 <= len(ex.query.tokens) <= limit
        ]


def _one_per_length(examples):
    seen = {}
    for ex in examples:
        seen.setdefault(len(ex.query.tokens), ex)
    return [seen[n] for n in sorted(seen)]


def _train_config(scale: Scale, steps: int, batch_size: int) -> training.TrainConfig:
    return training.TrainConfig(
        batch_size=batch_size,
        max_steps=steps,
        warmup_steps=scale.warmup_steps,
        seed=TRAIN_SEED,
        checkpoint_every=scale.checkpoint_every,
        keep_checkpoints=3,
    )


def probe_loss(model, prep: "Prepared") -> float:
    """Label-smoothed CE without dropout, averaged over the probe batches."""
    losses = []
    for batch in prep.probe:
        logits = model.forward_teacher_forced(batch.src_ids, batch.src_mask, batch.tgt_in)
        loss = training.label_smoothed_ce(logits, batch.gold, batch.step_mask,
                                          batch.support_mask, prep.train_config.epsilon_ls)
        losses.append(loss.item())
    return float(np.mean(losses))


def _probe_batches(examples, symtab, source_vocab, count: int, size: int):
    encoded = training.encode_corpus(examples, symtab, source_vocab)
    return [
        training.make_batch(encoded[i * size:(i + 1) * size], symtab.vocab_size)
        for i in range(max(1, min(count, len(encoded) // size)))
    ]


def prepare(workload: str, seed: int, scale: Scale, workdir: Path) -> Prepared:
    """Corpus, vocabularies, configs and (for decode_long) the fixed model."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "train_eval":
        # The acceptance corpus for every seed: how much a 300-step model
        # decodes depends on which queries it fails to stop on, so other
        # queries would change the work, not only the speed.
        splits = data.generate_synthetic(default_grammar(), scale.corpus_size, ACCEPTANCE_SEED)
        train_examples = splits["train"]
        queries = splits["dev"] + splits["test"]
        symtab, source_vocab = training.prepare_corpus(train_examples)
        steps, batch_size = scale.train_steps, scale.batch_size
    elif workload == "decode_long":
        # The training corpus and vocabularies are the same for every seed,
        # so the train phase and the model's shapes are too; the seed draws
        # the words of the queries (words outside the vocabulary read as UNK).
        limit = max(scale.long_lengths)

        def drawn(corpus_seed):
            splits = data.generate_synthetic(long_grammar(), scale.long_corpus_size, corpus_seed)
            return [ex for split in ("train", "dev", "test") for ex in splits[split]
                    if len(ex.query.tokens) <= limit]

        train_examples = drawn(ACCEPTANCE_SEED)
        by_length = {}
        for ex in drawn(seed):
            by_length.setdefault(len(ex.query.tokens), ex)
        missing = [n for n in scale.long_lengths if n not in by_length]
        if missing:
            raise RuntimeError(f"seed {seed} gave no query of length {missing}")
        queries = [by_length[n] for n in scale.long_lengths]
        symtab, source_vocab = training.prepare_corpus(train_examples, max_src_len=limit)
        steps, batch_size = scale.long_train_steps, scale.long_batch_size
    else:
        raise ValueError(f"unknown workload {workload!r}")
    model_config = ModelConfig(
        vocab_size=symtab.vocab_size,
        src_vocab_size=source_vocab.size,
        max_src_len=symtab.max_src_len,
        **scale.model,
    )
    train_config = _train_config(scale, steps, batch_size)
    queries_path = workdir / "queries.jsonl"
    data.write_jsonl(queries_path, queries)
    warm_path = workdir / "warm_queries.jsonl"
    data.write_jsonl(warm_path, _one_per_length(queries))
    probe = _probe_batches(train_examples, symtab, source_vocab, scale.probe_batches, batch_size)
    order = np.random.default_rng(seed).permutation(len(queries)).tolist()
    prep = Prepared(workload, workdir, train_examples, queries, queries_path, warm_path,
                    symtab, source_vocab, model_config, train_config, probe, order)
    prep.initial_loss = probe_loss(PointerGeneratorModel(model_config, seed=TRAIN_SEED), prep)
    if workload == "decode_long":
        model = PointerGeneratorModel(model_config, seed=DECODE_INIT_SEED)
        model.vocab_out.b.data[EOS_ID] = EOS_BAN_BIAS
        prep.decode_model = model
        prep.eval_checkpoint = checkpoint.save_checkpoint(
            workdir / "init", model, symtab, source_vocab, train_config.to_json(), step=0
        )
    return prep


# ---------------------------------------------------------------------------
# Warm-up: every phase once at every input shape it will see
# ---------------------------------------------------------------------------

def warm_train(prep: Prepared) -> None:
    """One forward, backward and Adam step per distinct training batch shape,
    plus one checkpoint write, on a throwaway model."""
    cfg = prep.train_config
    encoded = training.encode_corpus(prep.train_examples, prep.symtab, prep.source_vocab)
    lengths = [len(ex.src_ids) for ex in encoded]
    per_epoch = max(1, math.ceil(len(encoded) / cfg.batch_size))
    model = PointerGeneratorModel(prep.model_config, seed=TRAIN_SEED)
    adam = training.AdamState()
    rng = autodiff.DropoutRng(seed=TRAIN_SEED)
    seen = set()
    for epoch in range(math.ceil(cfg.max_steps / per_epoch)):
        for rows in training.epoch_plan(len(encoded), cfg.batch_size, cfg.seed, epoch, lengths):
            batch = training.make_batch([encoded[i] for i in rows], prep.symtab.vocab_size)
            shape = (batch.src_ids.shape, batch.tgt_in.shape)
            if shape in seen:
                continue
            seen.add(shape)
            model.zero_grad()
            with autodiff.Tape() as tape:
                logits = model.forward_teacher_forced(batch.src_ids, batch.src_mask, batch.tgt_in,
                                                      train=True, rng=rng)
                loss = training.label_smoothed_ce(logits, batch.gold, batch.step_mask,
                                                  batch.support_mask, cfg.epsilon_ls)
                tape.backward(loss)
            training.adam_step(model.parameters(), adam, 1e-4)
    checkpoint.save_checkpoint(prep.workdir / "warm_ckpt", model, prep.symtab, prep.source_vocab,
                               cfg.to_json(), step=0, opt_m=adam.m, opt_v=adam.v,
                               opt_step=adam.step)


def warm_decode(prep: Prepared) -> None:
    """The eval command on one query per source length (which also warms the
    interactive client's beam_search shapes), then one greedy pass."""
    run_eval(prep, prep.warm_path, prep.workdir / "warm_report")
    training.exact_match_rate(prep.decode_model, prep.queries, prep.symtab, prep.source_vocab)


# ---------------------------------------------------------------------------
# Host-speed correction
# ---------------------------------------------------------------------------

# The reference unit's time at the host's full speed: about its fastest time
# on the 2-vCPU VM the benchmark was built on.  It only sets the scale of the
# corrected times.
REFERENCE_S = 1.0e-3
_REFERENCE = np.random.default_rng(0).random((128, 128)) * 0.01


def reference_unit_s() -> float:
    """About a millisecond of the program's kind of work, fixed in the
    benchmark: small matrix products and interpreted Python."""
    t0 = time.perf_counter()
    x = _REFERENCE
    for _ in range(10):
        x = np.tanh(x @ _REFERENCE)
    total = 0
    for i in range(1000):
        total += i
    return time.perf_counter() - t0


class HostClock:
    """Times work at the host's full speed.

    On a shared VM other tenants slow a vCPU by up to 1.6 times, for
    stretches from a second to many minutes, so the same run can read 1.6
    times slower a minute later.  A probe runs the reference unit and reads
    the host's speed as ``REFERENCE_S`` over its time.  Probes run next to
    the measured work (before every training step and client query, and at
    model calls at most every ``every_s``).  The time from the end of one
    probe to the start of the next is multiplied by the mean speed the two
    read."""

    def __init__(self, every_s: float = 0.05):
        self.every_s = every_s
        self.marks: list[tuple[float, float, float]] = []  # (start, end, speed) of each probe
        self._next = 0.0

    @property
    def speeds(self) -> list[float]:
        return [speed for _, _, speed in self.marks]

    def probe(self) -> float:
        t0 = time.perf_counter()
        speed = REFERENCE_S / reference_unit_s()
        t1 = time.perf_counter()
        self.marks.append((t0, t1, speed))
        self._next = t1 + self.every_s
        return speed

    def full_speed_s(self, first: int, last: int) -> float:
        """The time between probes ``first`` and ``last``, less the probes,
        at full speed."""
        marks = self.marks[first:last + 1]
        return sum((b[0] - a[1]) * (a[2] + b[2]) / 2 for a, b in zip(marks, marks[1:]))

    @contextlib.contextmanager
    def probing(self):
        """Probe at outermost calls into a model method, at most every
        ``every_s``.  Every public method counts, so a decoder that calls
        other methods is probed just as often."""
        depth = 0

        def factory(method):
            def probed(*args, **kwargs):
                nonlocal depth
                if depth == 0 and time.perf_counter() >= self._next:
                    self.probe()
                depth += 1
                try:
                    return method(*args, **kwargs)
                finally:
                    depth -= 1
            return probed

        names = [name for name, attr in vars(PointerGeneratorModel).items()
                 if not name.startswith("_") and inspect.isfunction(attr)]
        with contextlib.ExitStack() as stack:
            for name in names:
                stack.enter_context(patched(PointerGeneratorModel, name, factory))
            yield

    def measure(self, fn):
        """``fn()``, its result, its time at full speed, and its raw time."""
        first = len(self.marks)
        t0 = time.perf_counter()
        self.probe()
        with self.probing():
            out = fn()
        self.probe()
        raw = time.perf_counter() - t0
        return out, self.full_speed_s(first, len(self.marks) - 1), raw


def measured(host: Optional[HostClock], fn):
    """``fn()``, its result, its time at full speed and its raw time; without
    a host clock both times are the raw time."""
    if host is not None:
        return host.measure(fn)
    t0 = time.perf_counter()
    out = fn()
    raw = time.perf_counter() - t0
    return out, raw, raw


# ---------------------------------------------------------------------------
# Timed phases
# ---------------------------------------------------------------------------

@dataclass
class TrainOutcome:
    seconds: float
    step_edges: list[float]  # perf_counter at the start of each step, then at the end
    host_step_ms: list[float]  # each step at full speed; without a host clock, as measured
    host_seconds: float  # the phase at full speed
    steps: int
    examples: int
    model: PointerGeneratorModel

    @property
    def step_ms(self) -> list[float]:
        return [(b - a) * 1e3 for a, b in zip(self.step_edges, self.step_edges[1:])]


def run_train(prep: Prepared, steps: int, checkpoint_dir: Optional[Path],
              host: Optional[HostClock] = None) -> TrainOutcome:
    """``train_loop`` at the workload's config; a clock on ``make_batch`` (the
    first call of every step) gives per-step times.  With a host clock, the
    host is probed before every step and after the last one."""
    cfg = training.TrainConfig(**{**prep.train_config.to_json(), "max_steps": steps})
    starts: list[float] = []
    probes: list[int] = []

    def clock(make_batch):
        def stamped(*args, **kwargs):
            if host is not None:
                host.probe()
                probes.append(len(host.marks) - 1)
            starts.append(time.perf_counter())
            return make_batch(*args, **kwargs)
        return stamped

    with patched(training, "make_batch", clock):
        t0 = time.perf_counter()
        result = training.train_loop(prep.train_examples, None, prep.model_config, cfg,
                                     prep.symtab, prep.source_vocab, checkpoint_dir=checkpoint_dir)
        if host is not None:
            host.probe()
            probes.append(len(host.marks) - 1)
        t1 = time.perf_counter()
    edges = starts + [t1]
    if host is None:
        step_ms = [(b - a) * 1e3 for a, b in zip(edges, edges[1:])]
        seconds = t1 - t0
    else:
        step_ms = [host.full_speed_s(a, b) * 1e3 for a, b in zip(probes, probes[1:])]
        seconds = (host.marks[probes[0]][0] - t0) * host.marks[probes[0]][2] + sum(step_ms) / 1e3
    return TrainOutcome(t1 - t0, edges, step_ms, seconds, result.final_step,
                        result.final_step * cfg.batch_size, result.model)


@dataclass
class EvalOutcome:
    seconds: float
    host_seconds: float
    exit_code: int
    report: dict = field(default_factory=dict)


def run_eval(prep: Prepared, input_path: Path, report_dir: Path,
             host: Optional[HostClock] = None) -> EvalOutcome:
    """``pointerparse eval --beam 4`` in-process; its stdout is kept, not
    shown."""
    argv = ["eval", "--checkpoint", str(prep.eval_checkpoint), "--input", str(input_path),
            "--beam", "4", "--report-dir", str(report_dir)]
    with contextlib.redirect_stdout(io.StringIO()):
        code, host_s, raw = measured(host, lambda: cli.main(argv))
    report = json.loads((report_dir / "report.json").read_text()) if code == 0 else {}
    return EvalOutcome(raw, host_s, code, report)


@dataclass
class GreedyOutcome:
    seconds: float
    host_seconds: float
    exact_match: float
    results: list  # DecodeResult per decodable query, in query order


def run_greedy(prep: Prepared, host: Optional[HostClock] = None) -> GreedyOutcome:
    """``exact_match_rate`` over the queries; its decode results are kept for
    the output checks."""
    results: list = []

    def keep(greedy_batch):
        def kept(*args, **kwargs):
            out = greedy_batch(*args, **kwargs)
            results.extend(out)
            return out
        return kept

    with patched(training, "greedy_batch", keep):
        em, host_s, raw = measured(host, lambda: training.exact_match_rate(
            prep.decode_model, prep.queries, prep.symtab, prep.source_vocab))
    return GreedyOutcome(raw, host_s, em, results)


@dataclass
class InteractiveOutcome:
    seconds: float
    latencies_ms: list[float]  # per query at full speed, math.inf where it failed
    errors: int


def run_interactive(prep: Prepared, host: Optional[HostClock] = None) -> InteractiveOutcome:
    """One client, closed loop, one pass over the queries: the next query
    goes out when the previous parse returns.  With a host clock, the host
    is probed before the first parse, after every parse, and inside a long
    one."""
    latencies = []
    errors = 0
    config = decoding.BeamConfig(4)
    t_start = time.perf_counter()
    with host.probing() if host is not None else contextlib.nullcontext():
        if host is not None:
            host.probe()
        for src in prep.sources:
            first = len(host.marks) - 1 if host is not None else 0
            t0 = time.perf_counter()
            try:
                decoding.beam_search(prep.decode_model, src, config)
                ms = (time.perf_counter() - t0) * 1e3
            except Exception:  # noqa: BLE001 - a failed parse is counted, not fatal
                errors += 1
                ms = math.inf
            if host is not None:
                host.probe()
                if ms < math.inf:
                    ms = host.full_speed_s(first, len(host.marks) - 1) * 1e3
            latencies.append(ms)
    return InteractiveOutcome(time.perf_counter() - t_start, latencies, errors)


def parse_latencies_ms(passes) -> list[float]:
    """Each query's median latency over the client's passes."""
    out = []
    for times in zip(*(p.latencies_ms for p in passes)):
        done = [ms for ms in times if ms < math.inf]
        if done:
            out.append(statistics.median(done))
    return out


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``statistics.quantiles`` inclusive)."""
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[int(q) - 1])
