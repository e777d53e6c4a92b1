import ast
from pathlib import Path

import udspell

ROOT = Path(__file__).resolve().parent.parent

# The public API, pinned so that any name added to or dropped from it shows
# up as a reviewed change to this list.
PUBLIC_NAMES = [
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
    "PinyinSyllable",
    "PinyinTable",
    "PruneConfig",
    "UdspellError",
    "UserDictionary",
    "build_ideal_dictionary",
    "build_ngram_confusion",
    "dataset_stats",
    "decode",
    "decode_corpus",
    "decompose",
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


def test_public_names_pinned():
    assert sorted(udspell.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in udspell.__all__:
        assert getattr(udspell, name) is not None, name


def test_every_public_name_has_a_caller_outside_the_tests():
    """No library code that only tests call: each public name is used by the
    library's own modules or by a demo."""
    sources = [p for p in (ROOT / "src" / "udspell").glob("*.py") if p.name != "__init__.py"]
    sources += (ROOT / "demos").glob("*.py")
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(udspell.__all__) - used) == []
