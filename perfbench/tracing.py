"""Spans around the public functions of each pointerparse module.

The tracer patches module and class attributes from the outside, so the
program under test is unchanged.  A function imported by name into another
module is patched where it is looked up (``cli.beam_search`` as well as
``decoding.beam_search``).  Spans live in flat in-memory arrays until the run
ends; ``summarize`` turns them into per-layer numbers.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

from pointerparse import (
    autodiff, checkpoint, cli, data, decoding, metrics, model, training, training_ops,
)

# Forward ops that record a tape node.  ``swap_last`` and ``reduce_mean`` are
# left out: they call ``transpose`` and ``reduce_sum``/``scale``, which are
# counted already.
AUTODIFF_OPS = (
    "add", "mul", "scale", "matmul", "transpose", "reshape", "concat", "gather",
    "relu", "softmax", "log_softmax", "layer_norm", "mask_fill", "reduce_sum", "dropout",
)


class Tracer:
    """Flat span store: name id, start, end, parent span, request id, phase id."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.phase_id = array("i")
        self.phases: list[str] = []
        self._stack: list[int] = []
        self.current_request = -1
        self.current_phase = -1
        # Counters sampled at span boundaries, keyed by phase then name.
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))

    def set_phase(self, phase: str) -> None:
        if phase not in self.phases:
            self.phases.append(phase)
        self.current_phase = self.phases.index(phase)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[self.phases[self.current_phase]][name] += value

    def _intern(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.current_request)
        self.phase_id.append(self.current_phase)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield idx
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def innermost(self) -> str | None:
        return self.names[self.name_id[self._stack[-1]]] if self._stack else None

    def wrap(self, name, fn, after=None, new_request=False):
        """``fn`` inside a span; ``after(args, kwargs, result)`` records counts.
        With ``new_request`` every call starts a new request id."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if new_request:
                self.current_request += 1
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def save(self, path: Path) -> None:
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            phases=np.asarray(self.phases),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
            phase_id=np.frombuffer(self.phase_id, dtype=np.int32),
        )


@contextlib.contextmanager
def patched(owner, attr: str, factory):
    """Replace ``owner.attr`` with ``factory(original)`` inside the block."""
    original = getattr(owner, attr)
    setattr(owner, attr, factory(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _dir_bytes(path) -> int:
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Patch every traced boundary for the duration of the block."""
    t = tracer
    stack = contextlib.ExitStack()

    def trace(name, sites, after=None, new_request=False):
        """Wrap the function at the first (owner, attribute) site and install
        the wrapper at every site it is looked up from."""
        owner, attr = sites[0]
        wrapped = t.wrap(name, getattr(owner, attr), after, new_request)
        for owner, attr in sites:
            stack.enter_context(patched(owner, attr, lambda _: wrapped))

    def after_backward(args, kwargs, result):
        t.count("autodiff.tape_nodes", len(args[0].nodes))
        t.count("autodiff.backward_calls")

    def after_decode_step(args, kwargs, result):
        rows, length = np.atleast_2d(np.asarray(args[1])).shape
        t.count("model.decode_step.calls")
        t.count("model.decode_step.rows", rows)
        t.count("model.decode_step.row_positions", rows * length)

    attn_call = model.MultiHeadAttention.__call__

    def attention(self, query_in, kv_in, *rest):
        if query_in is not kv_in:
            name = "model.dec_cross_attn"
        elif t.innermost() == "model.enc_layer":
            name = "model.enc_self_attn"
        else:
            name = "model.dec_self_attn"
        with t.span(name):
            return attn_call(self, query_in, kv_in, *rest)

    def after_make_batch(args, kwargs, result):
        t.count("training.steps")

    def after_decode(args, kwargs, results):
        for res in results:
            t.count("decoding.results")
            t.count("decoding.emitted", len(res.ids))
            t.count("decoding.truncated", res.truncated)

    def after_beam(args, kwargs, results):
        t.count("decoding.beam_queries")
        after_decode(args, kwargs, results[:1])

    def after_save(args, kwargs, result):
        t.count("checkpoint.save.bytes", _dir_bytes(result))

    cls = model.PointerGeneratorModel
    with stack:
        for op in AUTODIFF_OPS:
            sites = [(autodiff, op)] + ([(training_ops, op)] if op in vars(training_ops) else [])
            trace(f"autodiff.{op}", sites)
        trace("autodiff.backward", [(autodiff.Tape, "backward")], after_backward)

        trace("model.decode_step", [(cls, "decode_step")], after_decode_step)
        trace("model.encode", [(cls, "encode")])
        trace("model.forward_teacher_forced", [(cls, "forward_teacher_forced")])
        trace("model.joint_logits", [(cls, "joint_logits")])
        trace("model.enc_layer", [(model.EncoderLayer, "__call__")])
        trace("model.ffn", [(model.FeedForward, "__call__")])
        # Attention is named by its role, which only the call can tell.
        stack.enter_context(patched(model.MultiHeadAttention, "__call__", lambda _: attention))

        # make_batch opens every training step, so each step is one request.
        trace("training.make_batch", [(training, "make_batch")], after_make_batch, new_request=True)
        trace("training.epoch_plan", [(training, "epoch_plan")])
        trace("training_ops.label_smoothed_ce", [(training, "label_smoothed_ce")])
        trace("training_ops.adam_step", [(training, "adam_step")])
        trace("training.exact_match_rate", [(training, "exact_match_rate")])

        trace("decoding.beam_search", [(decoding, "beam_search"), (cli, "beam_search")],
              after_beam, new_request=True)
        trace("decoding.greedy_batch", [(decoding, "greedy_batch"), (training, "greedy_batch")],
              after_decode)

        trace("checkpoint.save", [(checkpoint, "save_checkpoint")], after_save)
        trace("checkpoint.load", [(checkpoint, "load_checkpoint")])
        trace("checkpoint.prune", [(checkpoint, "prune_checkpoints")])

        trace("metrics.evaluate", [(cli, "evaluate")])
        trace("linearize.validate", [(metrics, "validate"), (cli, "validate")])
        trace("data.read_jsonl", [(cli, "read_jsonl")])
        trace("data.generate_synthetic", [(data, "generate_synthetic")])
        yield tracer


def summarize(tracer: Tracer, phases) -> dict[str, dict[str, float]]:
    """Per span name over the given phases: calls, inclusive and self seconds."""
    n = len(tracer.start)
    if n == 0:
        return {}
    start = np.frombuffer(tracer.start, dtype=np.float64)
    end = np.frombuffer(tracer.end, dtype=np.float64)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
    phase_id = np.frombuffer(tracer.phase_id, dtype=np.int32)
    duration = end - start
    child_time = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child_time, parent[has_parent], duration[has_parent])
    self_time = duration - child_time
    wanted = np.isin(phase_id, [tracer.phases.index(ph) for ph in phases if ph in tracer.phases])
    out = {}
    for idx, name in enumerate(tracer.names):
        sel = wanted & (name_id == idx)
        calls = int(sel.sum())
        if calls:
            out[name] = {
                "calls": calls,
                "total_s": float(duration[sel].sum()),
                "self_s": float(self_time[sel].sum()),
            }
    return out


def step_coverage(tracer: Tracer, phase: str, edges) -> tuple[float, float]:
    """Training time from the first step's start to the last step's end, and
    the part of it covered by spans.

    Top-level spans tile that interval without overlap, so their durations
    add up to the sum of every span's self time inside it.
    """
    if phase not in tracer.phases or len(edges) < 2:
        return 0.0, 0.0
    lo, hi = edges[0], edges[-1]
    start = np.frombuffer(tracer.start, dtype=np.float64)
    end = np.frombuffer(tracer.end, dtype=np.float64)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    phase_id = np.frombuffer(tracer.phase_id, dtype=np.int32)
    top = (phase_id == tracer.phases.index(phase)) & (parent < 0) & (start >= lo) & (start < hi)
    covered = float((np.minimum(end[top], hi) - start[top]).sum())
    return hi - lo, covered
