"""pointerparse benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload train_eval --seed 17 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no spans recorded.
``--trace 1`` runs the same workload untraced and then traced, and reports the
per-layer metrics and the tracing overhead.  Run it from the repository root;
it imports ``pointerparse`` from ``src/`` next to this directory and fails
without printing a result when that is missing.  The last line of standard
output is one JSON object; a fuller record goes to ``perfbench/results/``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# BLAS and OpenMP read their thread counts when numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3

# (name, unit) in the order printed.  BENCHMARK.json lists the same metrics.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("train_examples_per_s", "1/s"),
    ("train_step_ms_p50", "ms"),
    ("train_step_ms_p90", "ms"),
    ("train_loss", "nats"),
    ("eval_queries_per_s", "1/s"),
    ("greedy_queries_per_s", "1/s"),
    ("parse_ms_p50", "ms"),
    ("parse_ms_p90", "ms"),
)
# Reported with the end-to-end metrics but not gated: a quality or failure
# figure that is 0 on one of the workloads.
REPORTED = (
    ("exact_match", "share"),
    ("well_formed_rate", "share"),
    ("failed_share", "share"),
)
# Spans whose mean inclusive and self time per call are reported.
CALL_TIMES = (
    ("model.decode_step", "ms"),
    ("model.encode", "ms"),
    ("model.forward_teacher_forced", "ms"),
    ("model.enc_layer", "ms"),
    ("model.enc_self_attn", "ms"),
    ("model.dec_self_attn", "ms"),
    ("model.dec_cross_attn", "ms"),
    ("model.ffn", "ms"),
    ("model.joint_logits", "ms"),
    ("autodiff.backward", "ms"),
    ("training_ops.label_smoothed_ce", "ms"),
    ("training_ops.adam_step", "ms"),
    ("training.make_batch", "ms"),
    ("training.exact_match_rate", "s"),
    ("decoding.beam_search", "ms"),
    ("checkpoint.save", "ms"),
    ("checkpoint.load", "ms"),
    ("metrics.evaluate", "ms"),
    ("linearize.validate", "us"),
    ("data.read_jsonl", "ms"),
    ("data.generate_synthetic", "s"),
)
STEP_OPS = ("matmul", "softmax", "layer_norm")
SCALE_TO_UNIT = {"s": 1.0, "ms": 1e3, "us": 1e6}


def per_layer_metrics() -> list[tuple[str, str]]:
    out = []
    for name, unit in CALL_TIMES:
        out.append((f"{name}.{unit}", f"{unit}/call"))
        out.append((f"{name}.self_{unit}", f"{unit}/call"))
    out += [
        ("model.decode_step.calls_per_query", "count"),
        ("model.decode_step.rows_mean", "rows"),
        ("model.decode_step.recompute_factor", "ratio"),
        ("model.decode_step.share", "share"),
        ("autodiff.tape_nodes", "count/step"),
        ("autodiff.op_calls", "count/step"),
    ]
    out += [(f"autodiff.{op}.ms", "ms/step") for op in STEP_OPS]
    out += [
        ("decoding.steps_per_query", "count"),
        ("decoding.emitted_len_mean", "symbols"),
        ("decoding.truncated_share", "share"),
        ("checkpoint.save.bytes", "bytes/call"),
        ("trace.train_step_ms_p50", "ms"),
        ("trace.train_step_self_share", "share"),
        ("trace.overhead.train_step_ms_p50", "ms"),
        ("trace.overhead.eval_queries_per_s", "1/s"),
        ("trace.overhead.greedy_queries_per_s", "1/s"),
        ("trace.overhead.parse_ms_p50", "ms"),
    ]
    return out


PER_LAYER = tuple(per_layer_metrics())


def import_program():
    """Import pointerparse from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import pointerparse
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import pointerparse from {src}: {exc}")
    if Path(pointerparse.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: pointerparse loaded from {pointerparse.__file__}, not {src}")


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "python_threads": threading.active_count(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checks:
    """Output checks, each with the number of operations whose output it failed."""

    def __init__(self):
        self.items: list[dict] = []

    def add(self, name: str, failed: int, detail: str) -> None:
        self.items.append({"name": name, "ok": failed == 0, "failed": int(failed),
                           "detail": detail})

    @property
    def failed(self) -> int:
        return sum(item["failed"] for item in self.items)


def decode_rounds(w, prep, seconds, report_dir, min_rounds=1, tracer=None, host=None) -> dict:
    """Rounds of the decode phases: the eval command, the greedy dev-tracking
    pass and one pass of the interactive client.  At least ``min_rounds``,
    then more while another round fits in ``seconds``.  Interleaving the
    phases spreads each one's repeats over the whole window, so one slow
    stretch of the host does not hit every repeat of a phase."""
    phases = {
        "eval": lambda: w.run_eval(prep, prep.queries_path, report_dir, host),
        "greedy": lambda: w.run_greedy(prep, host),
        "interactive": lambda: w.run_interactive(prep, host),
    }
    out = {name: [] for name in phases}
    t_start = time.perf_counter()
    while True:
        for name, phase in phases.items():
            if tracer is not None:
                tracer.set_phase(name)
            out[name].append(phase())
        rounds = len(out["eval"])
        elapsed = time.perf_counter() - t_start
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            break
    if tracer is not None:
        tracer.set_phase("after")
    return out


def end_to_end(w, train, decoded, queries: int) -> dict:
    """Every time at the host's full speed (see ``workloads.HostClock``); a
    decode phase's time is the median over its rounds."""
    steps = train.host_step_ms
    latencies = w.parse_latencies_ms(decoded["interactive"])

    def median_s(outcomes):
        return statistics.median(o.host_seconds for o in outcomes)

    return {
        "train_examples_per_s": train.examples / train.host_seconds,
        "train_step_ms_p50": statistics.median(steps),
        "train_step_ms_p90": w.percentile(steps, 90),
        "eval_queries_per_s": queries / median_s(decoded["eval"]),
        "greedy_queries_per_s": queries / median_s(decoded["greedy"]),
        "parse_ms_p50": statistics.median(latencies),
        "parse_ms_p90": w.percentile(latencies, 90),
    }


def check_outputs(w, prep, scale, train, train_loss, decoded, picks, checks: Checks) -> None:
    """A failed check fails the operations it covers: every training step for
    the loss, every eval query for the eval command, each sampled or greedy
    query on its own for the decode checks."""
    ok = math.isfinite(train_loss) and train_loss < prep.initial_loss
    checks.add("train_loss_finite_and_below_initial", 0 if ok else train.steps,
               f"initial {prep.initial_loss:.4f}, after training {train_loss:.4f}")

    floor = scale.em_floor if prep.workload == "train_eval" else 0.0
    failed_runs = 0
    for ev in decoded["eval"]:
        em = ev.report.get("em_accuracy", 0.0)
        failed_runs += not (ev.exit_code == 0 and em >= floor)
    checks.add("eval_exit_0_and_exact_match_floor", failed_runs * len(prep.queries),
               f"{len(decoded['eval']) - failed_runs} of {len(decoded['eval'])} runs: exit "
               f"{ev.exit_code}, exact_match {em:.4f}, floor {floor}")

    # Beam 1 must follow the greedy path: same ids, bit-identical score.
    mismatched = 0
    for src in picks:
        beam = w.decoding.beam_search(prep.decode_model, src, w.decoding.BeamConfig(1))[0]
        greedy = w.decoding.greedy(prep.decode_model, src)
        mismatched += beam.ids != greedy.ids or beam.score != greedy.score
    checks.add("beam1_equals_greedy", mismatched,
               f"{len(picks) - mismatched} of {len(picks)} sampled queries agree")

    if prep.workload == "decode_long":
        lengths = [len(ex.query.tokens) for ex in prep.queries]
        capped = sum(
            res.truncated and len(res.ids) == w.decoding.target_cap(n)
            for res, n in zip(decoded["greedy"][0].results, lengths)
        )
        checks.add("greedy_truncated_at_2n_plus_16", len(lengths) - capped,
                   f"{capped} of {len(lengths)} greedy outputs end at exactly 2n+16")


def layer_metrics(tracing, tracer, traced_train, decoded) -> dict:
    """Per-layer numbers from the traced pass."""
    decode = ("eval", "greedy", "interactive")
    beam = ("eval", "interactive")
    train = ("train",)
    everything = tracing.summarize(tracer, train + decode)
    setup = tracing.summarize(tracer, ("setup",))
    in_train = tracing.summarize(tracer, train)
    in_decode = tracing.summarize(tracer, decode)

    def count(phases, key):
        return sum(tracer.counts[ph][key] for ph in phases)

    def ratio(a, b):
        return a / b if b else 0.0

    def field(table, name, key):
        return table.get(name, {}).get(key, 0)

    out = {}
    for name, unit in CALL_TIMES:
        table = setup if name == "data.generate_synthetic" else everything
        calls = field(table, name, "calls")
        scale = SCALE_TO_UNIT[unit]
        out[f"{name}.{unit}"] = ratio(field(table, name, "total_s"), calls) * scale
        out[f"{name}.self_{unit}"] = ratio(field(table, name, "self_s"), calls) * scale

    calls = count(decode, "model.decode_step.calls")
    rows = count(decode, "model.decode_step.rows")
    results = count(decode, "decoding.results")
    decode_wall = sum(decoded[ph][0].seconds for ph in decode)
    out["model.decode_step.calls_per_query"] = ratio(calls, results)
    out["model.decode_step.rows_mean"] = ratio(rows, calls)
    out["model.decode_step.recompute_factor"] = ratio(
        count(decode, "model.decode_step.row_positions"), rows)
    out["model.decode_step.share"] = ratio(
        field(in_decode, "model.decode_step", "total_s"), decode_wall)

    steps = count(train, "training.steps")
    out["autodiff.tape_nodes"] = ratio(count(train, "autodiff.tape_nodes"),
                                       count(train, "autodiff.backward_calls"))
    op_calls = sum(field(in_train, f"autodiff.{op}", "calls") for op in tracing.AUTODIFF_OPS)
    out["autodiff.op_calls"] = ratio(op_calls, steps)
    for op in STEP_OPS:
        out[f"autodiff.{op}.ms"] = ratio(field(in_train, f"autodiff.{op}", "total_s"), steps) * 1e3

    out["decoding.steps_per_query"] = ratio(count(beam, "model.decode_step.calls"),
                                            count(beam, "decoding.beam_queries"))
    out["decoding.emitted_len_mean"] = ratio(count(decode, "decoding.emitted"), results)
    out["decoding.truncated_share"] = ratio(count(decode, "decoding.truncated"), results)
    out["checkpoint.save.bytes"] = ratio(count(train, "checkpoint.save.bytes"),
                                         field(in_train, "checkpoint.save", "calls"))

    step_time, covered = tracing.step_coverage(tracer, "train", traced_train.step_edges)
    out["trace.train_step_ms_p50"] = statistics.median(traced_train.step_ms)
    out["trace.train_step_self_share"] = ratio(covered, step_time)
    return out


def overheads(w, traced, untraced, queries: int, k_steps: int) -> dict:
    """Traced minus untraced figures of two passes (train, decoded) run one
    right after the other, each with one round of the decode phases.
    Training compares the first ``k_steps`` steps."""

    def figures(train, decoded):
        return {
            "train_step_ms_p50": statistics.median(train.step_ms[:k_steps]),
            "eval_queries_per_s": queries / decoded["eval"][0].seconds,
            "greedy_queries_per_s": queries / decoded["greedy"][0].seconds,
            "parse_ms_p50": statistics.median(w.parse_latencies_ms(decoded["interactive"])),
        }

    on, off = figures(*traced), figures(*untraced)
    return {f"trace.overhead.{key}": on[key] - off[key] for key in on}


def run(args, w, tracing, scale, env, workdir: Path) -> int:
    trace = args.trace == 1
    tracer = tracing.Tracer() if trace else None

    def traced():
        return tracing.instrument(tracer) if trace else contextlib.nullcontext()

    # Every end-to-end time is taken at the host's full speed.
    host = w.HostClock()

    def warm(fn):
        return w.measured(host, lambda: fn(prep))[1:]

    # Set-up: corpus, vocabularies, configs; repeated, the median reported.
    setup_runs = []
    for _ in range(SETUP_REPEATS):
        with traced():
            if trace:
                tracer.set_phase("setup")
            prep, host_s, raw = w.measured(
                host, lambda: w.prepare(args.workload, args.seed, scale, workdir))
            setup_runs.append((host_s, raw))
    warm_runs = [warm(w.warm_train)]
    if prep.decode_model is not None:
        warm_runs.append(warm(w.warm_decode))

    # Untraced pass: the end-to-end numbers.
    checks = Checks()
    train_dir = workdir / "ckpt" if args.workload == "train_eval" else None
    train = w.run_train(prep, prep.train_config.max_steps, train_dir, host)
    train_loss = w.probe_loss(train.model, prep)
    if prep.decode_model is None:  # train_eval decodes the model it just trained
        prep.decode_model, prep.eval_checkpoint = train.model, train_dir
        warm_runs.append(warm(w.warm_decode))
    decoded = decode_rounds(w, prep, args.seconds, workdir / "report", scale.min_rounds,
                            host=host)
    sources = prep.sources
    picks = sources[:: max(1, len(sources) // scale.check_samples)][: scale.check_samples]
    check_outputs(w, prep, scale, train, train_loss, decoded, picks, checks)

    queries = len(prep.queries)
    rounds = len(decoded["eval"])
    sent = sum(len(p.latencies_ms) for p in decoded["interactive"])
    setup_s = statistics.median(h for h, _ in setup_runs) + sum(h for h, _ in warm_runs)
    metrics = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb()}
    metrics.update(end_to_end(w, train, decoded, queries))
    metrics["train_loss"] = train_loss
    attempted = train.steps + 2 * rounds * queries + sent + len(picks)
    failed = checks.failed + sum(p.errors for p in decoded["interactive"])
    report = decoded["eval"][0].report
    reported = {
        "exact_match": report.get("em_accuracy", 0.0),
        "well_formed_rate": report.get("well_formed_rate", 0.0),
        "failed_share": failed / attempted,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "scale": args.scale, "environment": env,
        "host_speed": {"probes": len(host.speeds), "mean": statistics.fmean(host.speeds),
                       "min": min(host.speeds), "max": max(host.speeds)},
        "phase_s": {"train": train.seconds,
                    **{k: sum(r.seconds for r in v) for k, v in decoded.items()}},
        "counts": {"train_steps": train.steps, "queries": queries, "decode_rounds": rounds,
                   "interactive_queries": sent},
        "checks": checks.items, "attempted": attempted, "failed": failed,
        "end_to_end": metrics, "reported": reported,
        "as_measured": {
            "setup_runs_s": [raw for _, raw in setup_runs],
            "warm_up_s": [raw for _, raw in warm_runs],
            "train_step_ms_p50": statistics.median(train.step_ms),
            "train_s": train.seconds,
            **{f"{k}_s": [r.seconds for r in v] for k, v in decoded.items()},
        },
    }

    if trace:
        k = scale.trace_train_steps
        with traced():
            tracer.set_phase("train")
            traced_train = w.run_train(prep, k, workdir / "ckpt_traced" if train_dir else None)
            traced_decoded = decode_rounds(w, prep, 0, workdir / "report_traced", tracer=tracer)
        again_train = w.run_train(prep, k, workdir / "ckpt_again" if train_dir else None)
        again_decoded = decode_rounds(w, prep, 0, workdir / "report_again")
        layers = layer_metrics(tracing, tracer, traced_train, traced_decoded)
        layers.update(overheads(w, (traced_train, traced_decoded), (again_train, again_decoded),
                                queries, k))
        record["per_layer"] = layers
        record["spans"] = len(tracer.start)
        shown = [(name, unit, layers[name]) for name, unit in PER_LAYER]
    else:
        shown = [(name, unit, metrics[name]) for name, unit in END_TO_END]

    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if trace:
        tracer.save(results / f"{stem}-spans.npz")

    print(f"# pointerparse benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} scale={args.scale}")
    print("# environment " + json.dumps(env, sort_keys=True))
    for name, seconds in record["phase_s"].items():
        print(f"phase  {name:<12} {seconds:10.3f} s")
    for item in checks.items:
        print(f"check  {item['name']:<40} {'ok' if item['ok'] else 'FAILED'}  {item['detail']}")
    if trace:
        for name, unit in END_TO_END:
            print(f"untraced {name:<38} {metrics[name]:14.6g} {unit}")
    for name, unit in REPORTED:
        print(f"{'metric':<8} {name:<38} {reported[name]:14.6g} {unit}")
    for name, unit, value in shown:
        print(f"{'metric':<8} {name:<38} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit} for name, unit, value in shown},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train_eval", "decode_long"))
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the window the decode phases repeat in")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a small model and corpus for the smoke test")
    args = parser.parse_args(argv)

    import_program()
    import workloads as w
    import tracing

    scale = w.SCALES[args.scale]
    env = environment(args.seed)
    workdir = BENCH_DIR / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return run(args, w, tracing, scale, env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
