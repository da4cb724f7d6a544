"""Loss, learning-rate schedule, and optimizer arithmetic."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .autodiff import Tensor, _accumulate, _record


class GoldOutOfRange(ValueError):
    pass


class NonFiniteGradient(RuntimeError):
    pass


class LossBelowEntropyFloor(ArithmeticError):
    """The loss came out below the entropy of the smoothed target, which no
    distribution can reach; the loss arithmetic is wrong."""


def noam_lr(step: int, d_model: int, warmup: int) -> float:
    """lr = d_model^-0.5 * min(step^-0.5, step * warmup^-1.5); rises linearly
    for ``warmup`` steps, then decays with inverse square root."""
    if step < 1:
        raise ValueError("noam schedule is defined for step >= 1")
    return d_model ** -0.5 * min(step ** -0.5, step * warmup ** -1.5)


def label_smoothed_ce(
    logits: Tensor,
    gold: np.ndarray,
    step_mask: np.ndarray,
    support_mask: np.ndarray,
    epsilon: float,
    per_example: bool = False,
) -> Tensor:
    """Mean over real target steps of
    ``(1-eps) * (-log p_gold) + eps * mean_{k in support}(-log p_k)``.

    The smoothing support is each example's full joint outcome set (parse
    symbols plus its in-range pointers) minus PAD; padded target steps are
    excluded from the mean.  One tape node: the log-softmax and the loss
    accumulate in float64, and the gradient with respect to the logits is the
    closed form ``softmax - q`` (q the smoothed target) times each step's
    weight in the mean.  Checks the cross-entropy lower bound: the loss can
    never drop below the entropy of the smoothed target.
    """
    gold = np.asarray(gold)
    step_mask = np.asarray(step_mask, dtype=bool)
    support_mask = np.asarray(support_mask, dtype=bool)
    batch, steps, width = logits.shape
    if gold.min() < 0 or gold.max() >= width:
        raise GoldOutOfRange(f"gold ids must be in [0, {width})")
    rows = np.arange(batch)[:, None]
    if not np.all(support_mask[rows, gold] | ~step_mask):
        raise GoldOutOfRange("a gold id falls outside its example's support")

    shifted = (logits.data - logits.data.max(axis=-1, keepdims=True)).astype(np.float64)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))  # [B, T, W]
    counts = support_mask.sum(axis=1)  # [B]
    support = support_mask.astype(np.float64)
    nll = -np.take_along_axis(logp, gold[:, :, None], axis=2)[:, :, 0]  # [B, T]
    smooth = -(logp @ support[:, :, None])[:, :, 0] / counts[:, None]
    per_step = (1.0 - epsilon) * nll + epsilon * smooth

    steps_per_example = step_mask.sum(axis=1)
    if per_example:
        weight = step_mask / np.maximum(steps_per_example, 1)[:, None]  # [B, T]
        value = (per_step * weight).sum(axis=1)
    else:
        weight = step_mask / max(int(steps_per_example.sum()), 1)
        value = (per_step * weight).sum()
    loss = Tensor(value.astype(np.float32))
    _check_entropy_floor(loss, counts, steps_per_example, epsilon, per_example)

    def backward(g: np.ndarray) -> None:
        coef = weight * (g[:, None] if per_example else g)  # [B, T]
        grad = np.exp(logp)
        grad *= coef[:, :, None]
        grad -= (coef * (epsilon / counts[:, None]))[:, :, None] * support[:, None, :]
        grad[rows, np.arange(steps)[None, :], gold] -= (1.0 - epsilon) * coef
        _accumulate(logits, grad)

    return _record(loss, (logits,), backward)


def _check_entropy_floor(loss, counts, steps_per_example, epsilon, per_example):
    if epsilon <= 0.0:
        return
    k = counts.astype(np.float64)
    q_gold = (1.0 - epsilon) + epsilon / k
    floor = -(q_gold * np.log(q_gold) + (k - 1.0) * (epsilon / k) * np.log(epsilon / k))
    if per_example:
        bound = floor
        values = loss.data
    else:
        bound = float((floor * steps_per_example).sum() / max(steps_per_example.sum(), 1))
        values = loss.data.reshape(())
    if not np.all(values >= bound - 1e-4):
        raise LossBelowEntropyFloor(
            f"loss {np.min(values):.6g} fell below the smoothed-entropy floor {np.min(bound):.6g}"
        )


@dataclass
class AdamState:
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def global_grad_norm(params: dict[str, Tensor]) -> float:
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float(np.sum(p.grad.astype(np.float64) ** 2))
    return float(np.sqrt(total))


def adam_step(
    params: dict[str, Tensor],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.98,
    eps: float = 1e-9,
    clip_norm: Optional[float] = 1.0,
) -> None:
    """Standard Adam with bias correction; optional global-norm clipping.

    Moments and parameters are updated in place in float32; the global norm
    accumulates in float64.  A non-finite gradient anywhere aborts the step
    before any moment or parameter changes.
    """
    for p in params.values():
        if p.grad is None:
            p.zero_grad()
    # A float64 sum of squared float32 values cannot overflow, so the norm is
    # finite exactly when every gradient entry is.
    norm = global_grad_norm(params)
    if not np.isfinite(norm):
        bad = next(name for name, p in params.items() if not np.all(np.isfinite(p.grad)))
        raise NonFiniteGradient(f"non-finite gradient in {bad}")
    factor = 1.0
    if clip_norm is not None and clip_norm > 0 and norm > clip_norm:
        factor = clip_norm / norm
    state.step += 1
    bc1 = 1.0 - beta1 ** state.step
    bc2 = 1.0 - beta2 ** state.step
    for name, p in params.items():
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
        v = state.v.get(name)
        if v is None:
            v = state.v[name] = np.zeros_like(p.data)
        # The clip factor folds into the moment coefficients.
        m *= beta1
        m += ((1.0 - beta1) * factor) * p.grad
        v *= beta2
        v += ((1.0 - beta2) * factor * factor) * np.square(p.grad)
        denom = v / bc2
        np.sqrt(denom, out=denom)
        denom += eps
        update = m / denom
        update *= lr / bc1
        p.data -= update
