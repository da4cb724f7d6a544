"""Shared test oracles: random-annotation builders and finite differences."""

from __future__ import annotations

import random

import numpy as np

from pointerparse.autodiff import Tape
from pointerparse.linearize import Kind, ParseNode, SemanticParse, Style


def finite_diff(f, x: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of scalar ``f()`` wrt array ``x`` in place."""
    grad = np.zeros(x.shape, dtype=np.float64)
    flat_x = x.reshape(-1)
    flat_g = grad.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        fp = f()
        flat_x[i] = orig - h
        fm = f()
        flat_x[i] = orig
        flat_g[i] = (fp - fm) / (2.0 * h)
    return grad


def _fd_entry(f, x: np.ndarray, i: int, h: float) -> float:
    flat = x.reshape(-1)
    orig = flat[i]
    flat[i] = orig + h
    fp = f()
    flat[i] = orig - h
    fm = f()
    flat[i] = orig
    return (fp - fm) / (2.0 * h)


def check_grad(make_loss, params, rel_tol=1e-2, abs_tol=1e-3, h=1e-3):
    """Compare tape gradients of ``make_loss()`` against finite differences.

    ``make_loss`` must rebuild the forward pass from the live parameter
    tensors on every call (finite differences mutate them in place).  The
    absolute term absorbs float32 evaluation noise near zero gradients.
    Entries whose difference quotient is unstable in h (the +-h interval
    straddles a relu kink, where the quotient is not a derivative estimate)
    are re-estimated once at h/10 before being called a mismatch; that
    refined comparison cannot resolve gradients below one float32 ulp of the
    loss divided by the step, so its absolute tolerance is floored there.
    """
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        tape.backward(make_loss())
    scalar_loss = lambda: make_loss().item()
    loss_ulp = float(np.spacing(np.float32(abs(scalar_loss()))))
    for p in params:
        ad = p.grad.astype(np.float64)
        fd = finite_diff(scalar_loss, p.data, h=h)
        err = np.abs(ad - fd)
        bound = rel_tol * np.maximum(np.abs(ad), np.abs(fd)) + abs_tol
        for i in np.flatnonzero(err > bound):
            h_fine = h / 10.0
            refined = _fd_entry(scalar_loss, p.data, int(i), h_fine)
            ad_i = ad.reshape(-1)[i]
            err_i = abs(ad_i - refined)
            floor = max(abs_tol, loss_ulp / h_fine)
            assert err_i <= rel_tol * max(abs(ad_i), abs(refined)) + floor, (
                f"grad mismatch at flat index {i}: autodiff={ad_i:.6g} "
                f"fd(h)={fd.reshape(-1)[i]:.6g} fd(h/10)={refined:.6g}"
            )

FLAT_INTENTS = ["alpha_intent", "beta_intent", "gamma_intent"]
FLAT_SLOTS = ["slot_a", "slot_b", "slot_c", "slot_d"]
TREE_INTENTS = ["IN:ONE", "IN:TWO", "IN:THREE"]
TREE_SLOTS = ["SL:X", "SL:Y", "SL:Z"]
SPAN_LABELS = ["Event_A", "Event_B", "Site_C"]


def random_flat(rng: random.Random, n: int) -> SemanticParse:
    slots = []
    pos = 0
    while pos < n and len(slots) < 4:
        if rng.random() < 0.5:
            width = rng.randint(1, min(3, n - pos))
            slots.append(
                ParseNode(rng.choice(FLAT_SLOTS), Kind.SLOT, tuple(range(pos, pos + width)))
            )
            pos += width
        pos += rng.randint(1, 2)
    root = ParseNode(rng.choice(FLAT_INTENTS), Kind.INTENT, (), tuple(slots))
    return SemanticParse(root, Style.FLAT)


def _random_tree_node(rng: random.Random, lo: int, hi: int, kind: Kind, depth: int) -> ParseNode:
    labels = TREE_INTENTS if kind is Kind.INTENT else TREE_SLOTS
    child_kind = Kind.SLOT if kind is Kind.INTENT else Kind.INTENT
    direct: list[int] = []
    children: list[ParseNode] = []
    pos = lo
    while pos < hi:
        make_child = depth > 1 and hi - pos >= 1 and rng.random() < 0.4
        if make_child:
            width = rng.randint(1, hi - pos)
            children.append(_random_tree_node(rng, pos, pos + width, child_kind, depth - 1))
            pos += width
        else:
            direct.append(pos)
            pos += 1
    return ParseNode(rng.choice(labels), kind, tuple(direct), tuple(children))


def random_tree(rng: random.Random, n: int, depth: int = 4) -> SemanticParse:
    root = _random_tree_node(rng, 0, n, Kind.INTENT, depth)
    return SemanticParse(root, Style.TREE)


def random_spanset(rng: random.Random, n: int) -> SemanticParse:
    m = rng.randint(1, 4)
    anns = []
    for _ in range(m):
        size = rng.randint(1, min(4, n))
        indices = tuple(sorted(rng.sample(range(n), size)))
        anns.append(ParseNode(rng.choice(SPAN_LABELS), Kind.SLOT, indices))
    anns.sort(key=lambda a: (a.token_indices[0], a.label, a.token_indices))
    root = ParseNode("", Kind.GROUP, (), tuple(anns))
    return SemanticParse(root, Style.SPANSET)


def random_parse(rng: random.Random, style: Style, n: int) -> SemanticParse:
    if style is Style.FLAT:
        return random_flat(rng, n)
    if style is Style.TREE:
        return random_tree(rng, n)
    return random_spanset(rng, n)


# Flat-config keys for a model small enough that a training step takes
# milliseconds.
TINY_CONFIG = {
    "model.d_model": 8, "model.d_dec": 8, "model.enc_ffn": 8, "model.dec_ffn": 8,
    "model.n_enc_heads": 2, "model.n_dec_heads": 2, "model.n_enc_layers": 1,
    "model.n_dec_layers": 1, "train.warmup_steps": 1,
}
