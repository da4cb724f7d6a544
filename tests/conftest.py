import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from pointerparse.data import default_grammar, generate_synthetic
from pointerparse.model import ModelConfig
from pointerparse.training import TrainConfig, prepare_corpus, train_loop, exact_match_rate

from helpers import train_acceptance_bundle


@pytest.fixture(scope="session")
def acceptance_bundle():
    return train_acceptance_bundle()


@pytest.fixture(scope="session")
def overfit_bundle():
    """A small model trained to 100% exact match on its own training set.

    Shared by decoding and evaluation tests that need a model whose
    predictions on training inputs are known exactly.
    """
    splits = generate_synthetic(default_grammar(), 96, seed=11)
    examples = splits["train"] + splits["dev"] + splits["test"]
    symtab, src_vocab = prepare_corpus(examples)
    model_config = ModelConfig(
        vocab_size=symtab.vocab_size,
        src_vocab_size=src_vocab.size,
        max_src_len=symtab.max_src_len,
        d_model=64,
        n_enc_layers=1,
        n_enc_heads=4,
        enc_ffn=128,
        d_dec=64,
        n_dec_layers=1,
        n_dec_heads=4,
        dec_ffn=128,
        dropout=0.1,
    )
    train_config = TrainConfig(
        batch_size=16,
        max_steps=2500,
        warmup_steps=150,
        eval_every=100,
        log_every=100,
        seed=13,
        early_stop_dev_em=1.0,
    )
    result = train_loop(examples, examples, model_config, train_config, symtab, src_vocab)
    em = exact_match_rate(result.model, examples, symtab, src_vocab)
    assert em == 1.0, f"overfit fixture failed to memorize its corpus (EM={em})"
    return result, examples
