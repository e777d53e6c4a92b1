import udspell

# The public API, pinned so that any name added to or dropped from it shows
# up as a reviewed change to this list.
PUBLIC_NAMES = [
    "Candidate",
    "ChannelModel",
    "CharConfusion",
    "CorpusDiagnostics",
    "CorrectionPath",
    "CorruptionRecord",
    "DecodeConfig",
    "EcmConfig",
    "EvalRecord",
    "Lattice",
    "NgramConfusion",
    "NgramModel",
    "PinyinSyllable",
    "PinyinTable",
    "PruneConfig",
    "UdspellError",
    "UserDictionary",
    "build_ideal_dictionary",
    "build_ngram_confusion",
    "candidate_path_count",
    "dataset_stats",
    "decode",
    "decode_corpus",
    "decompose",
    "generate_corpus",
    "load_char_confusion",
    "load_dictionary",
    "make_lattice",
    "parse_lattice",
    "phonetic_similar",
    "prune",
    "score_sentence",
    "sentence_metrics",
    "serialize_lattice",
    "train",
]


def test_public_names_pinned():
    assert sorted(udspell.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in udspell.__all__:
        assert getattr(udspell, name) is not None, name
