"""Task-oriented semantic parsing as sequence generation with source pointers.

The package linearizes parse annotations (flat intent/slot, hierarchical
trees, discontiguous span sets) into symbol sequences with @ptr_i copy
tokens, trains a small numpy transformer encoder-decoder whose output head
scores parse symbols jointly with source positions, decodes with greedy or
beam search, and scores predictions by exact match.
"""

from .linearize import (
    Kind,
    Malformed,
    ParseNode,
    Query,
    SemanticParse,
    Style,
    TargetSequence,
    TargetSymbol,
    delinearize,
    linearize,
    validate,
)
from .vocab import SourceVocab, SymbolTable, build_source_vocab, build_symbol_table
from .model import ModelConfig, PointerGeneratorModel
from .decoding import BeamConfig, DecodeResult, beam_search, greedy
from .training import TrainConfig, TrainResult, prepare_corpus, train_loop
from .metrics import EvalReport, evaluate, exact_match, intent_of
from .data import (
    CorpusExample,
    SyntheticGrammar,
    default_grammar,
    generate_synthetic,
    import_bio,
    import_top,
    read_jsonl,
    write_jsonl,
)

__version__ = "0.1.0"
