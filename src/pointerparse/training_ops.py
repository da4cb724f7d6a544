"""Loss, learning-rate schedule, and optimizer arithmetic."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, _accumulate, _record, log_softmax_f64


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

    logp = log_softmax_f64(logits.data)  # [B, T, W]
    counts = support_mask.sum(axis=1)  # [B]
    support = support_mask.astype(np.float64)
    nll = -np.take_along_axis(logp, gold[:, :, None], axis=2)[:, :, 0]  # [B, T]
    smooth = -(logp @ support[:, :, None])[:, :, 0] / counts[:, None]
    per_step = (1.0 - epsilon) * nll + epsilon * smooth

    steps_per_example = step_mask.sum(axis=1)
    weight = step_mask / max(int(steps_per_example.sum()), 1)  # [B, T]
    loss = Tensor((per_step * weight).sum().astype(np.float32))
    _check_entropy_floor(loss, counts, steps_per_example, epsilon)

    def backward(g: np.ndarray) -> None:
        coef = weight * g  # [B, T]
        grad = np.exp(logp)
        grad *= coef[:, :, None]
        grad -= (coef * (epsilon / counts[:, None]))[:, :, None] * support[:, None, :]
        grad[rows, np.arange(steps)[None, :], gold] -= (1.0 - epsilon) * coef
        _accumulate(logits, grad)

    return _record(loss, (logits,), backward)


def _check_entropy_floor(loss, counts, steps_per_example, epsilon):
    if epsilon <= 0.0:
        return
    k = counts.astype(np.float64)
    q_gold = (1.0 - epsilon) + epsilon / k
    floor = -(q_gold * np.log(q_gold) + (k - 1.0) * (epsilon / k) * np.log(epsilon / k))
    bound = float((floor * steps_per_example).sum() / max(steps_per_example.sum(), 1))
    if not loss.item() >= bound - 1e-4:
        raise LossBelowEntropyFloor(
            f"loss {loss.item():.6g} fell below the smoothed-entropy floor {bound:.6g}"
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
            sq = p.grad.astype(np.float64)
            total += float(np.sum(np.square(sq, out=sq)))
    return float(np.sqrt(total))


# Adam's settings, fixed for every run.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.98
ADAM_EPS = 1e-9
CLIP_NORM = 1.0  # the global gradient norm is clipped to this


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float) -> tuple[float, float]:
    """Standard Adam with bias correction and global-norm clipping at
    ``CLIP_NORM``.

    Moments and parameters are updated in place in float32; the global norm
    accumulates in float64.  A non-finite gradient anywhere aborts the step
    before any moment or parameter changes.  Returns the global gradient
    norm before clipping and the factor clipping scaled the gradients by.
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
    factor = CLIP_NORM / norm if norm > CLIP_NORM else 1.0
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.step
    bc2 = 1.0 - ADAM_BETA2 ** state.step
    for name, p in params.items():
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
        v = state.v.get(name)
        if v is None:
            v = state.v[name] = np.zeros_like(p.data)
        # The clip factor folds into the moment coefficients.
        m *= ADAM_BETA1
        m += ((1.0 - ADAM_BETA1) * factor) * p.grad
        v *= ADAM_BETA2
        v += ((1.0 - ADAM_BETA2) * factor * factor) * np.square(p.grad)
        denom = v / bc2
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        update = m / denom
        update *= lr / bc1
        p.data -= update
    return norm, factor
