"""User-dictionary guided decoding and data plumbing for Chinese spelling check.

The toolkit rescores the top-k output lattice of any token-classification
speller with a user dictionary (raw-span and altered-span matching under an
exact search), generates error-consistent synthetic corpora from confusion
sets, evaluates corrections with sentence-level metrics, and ships a small
noisy-channel scorer so the whole loop runs without a neural model.
"""

from .confusion import (
    CharConfusion,
    build_ngram_confusion,
    load_char_confusion,
)
from .decoder import CorpusDiagnostics, CorrectionPath, DecodeConfig, decode, decode_corpus
from .dictionary import UserDictionary, build_ideal_dictionary, load_dictionary
from .ecm import CorruptionRecord, EcmConfig, generate_corpus
from .errors import UdspellError
from .evaluate import EvalRecord, dataset_stats, sentence_metrics
from .lattice import Lattice, PruneConfig, make_lattice, parse_lattice, prune
from .pinyin import PinyinTable
from .scorer import ChannelModel, NgramModel, score_sentence, train

__version__ = "0.1.0"

__all__ = [
    "ChannelModel",
    "CharConfusion",
    "CorpusDiagnostics",
    "CorrectionPath",
    "CorruptionRecord",
    "DecodeConfig",
    "EcmConfig",
    "EvalRecord",
    "Lattice",
    "NgramModel",
    "PinyinTable",
    "PruneConfig",
    "UdspellError",
    "UserDictionary",
    "build_ideal_dictionary",
    "build_ngram_confusion",
    "dataset_stats",
    "decode",
    "decode_corpus",
    "generate_corpus",
    "load_char_confusion",
    "load_dictionary",
    "make_lattice",
    "parse_lattice",
    "prune",
    "score_sentence",
    "sentence_metrics",
    "train",
]
