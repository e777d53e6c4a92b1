import io

import pytest

from udspell.confusion import (
    NgramConfusion,
    build_ngram_confusion,
    chinese_runs,
    greedy_segment,
    load_char_confusion,
    load_ngram_confusion,
    save_ngram_confusion,
)
from udspell.errors import ConfusionError


class TestLoadCharConfusion:
    def test_phonetic_entry(self):
        conf = load_char_confusion(["报\tP\t抱,暴,爆"])
        assert conf.phonetic["报"] >= {"爆"}

    def test_morphological_entry(self):
        conf = load_char_confusion(["导\tM\t异"])
        assert conf.morphological["导"] >= {"异"}

    def test_empty_stream(self):
        conf = load_char_confusion([])
        assert conf.phonetic == {} and conf.morphological == {}

    def test_unknown_tag_raises(self):
        with pytest.raises(ConfusionError):
            load_char_confusion(["报\tQ\t抱"])

    def test_self_candidate_dropped(self, caplog):
        conf = load_char_confusion(["报\tP\t报,爆"])
        assert "报" not in conf.phonetic["报"]
        assert conf.phonetic["报"] == {"爆"}

    def test_dissimilar_phonetic_dropped_with_table(self, pinyin_table):
        conf = load_char_confusion(["报\tP\t爆,衣"], pinyin_table=pinyin_table)
        assert conf.phonetic["报"] == {"爆"}

    def test_bundled_set_satisfies_similarity(self, char_confusion, pinyin_table):
        for char, cands in char_confusion.phonetic.items():
            for cand in cands:
                assert pinyin_table.similar(char, cand), (char, cand)
                assert cand != char


class TestSegmentation:
    def test_chinese_runs(self):
        assert chinese_runs("甲abc乙丙, 丁") == ["甲", "乙丙", "丁"]

    def test_greedy_longest_match(self):
        words = {"审查", "审查案件", "案件"}
        assert greedy_segment("审查案件了", words) == ["审查案件", "了"]

    def test_no_match_falls_back_to_chars(self):
        assert greedy_segment("甲乙", set()) == ["甲", "乙"]


class TestBuildNgram:
    def test_phrase_pair_same_pinyin(self, char_confusion, pinyin_table):
        corpus = ["一年一年", "意念意念"] * 3
        conf = build_ngram_confusion(corpus, char_confusion, pinyin_table, min_count=2)
        assert "意念" in conf.entries.get("一年", set())
        assert "一年" in conf.entries.get("意念", set())

    def test_fuzzy_pair_requires_fuzzy(self, char_confusion, pinyin_table):
        corpus = ["四类四类四类", "室内室内室内"]
        fuzzy = build_ngram_confusion(corpus, char_confusion, pinyin_table, min_count=2)
        assert "室内" in fuzzy.entries.get("四类", set())
        exact = build_ngram_confusion(
            corpus, char_confusion, pinyin_table, min_count=2, fuzzy=False
        )
        assert "室内" not in exact.entries.get("四类", set())

    def test_tiny_corpus_hand_enumeration(self, char_confusion, pinyin_table):
        # only the bigram pair 一年/意念 is confusable among these grams
        corpus = ["一年好", "一年大", "意念好", "意念大"]
        conf = build_ngram_confusion(corpus, char_confusion, pinyin_table, min_count=2)
        assert conf.size == 2
        assert conf.entries == {"一年": {"意念"}, "意念": {"一年"}}

    def test_candidates_keep_fragment_length(self, char_confusion, pinyin_table):
        corpus = ["一年好", "一年大", "意念好", "意念大"]
        conf = build_ngram_confusion(corpus, char_confusion, pinyin_table, min_count=2)
        for frag, cands in conf.entries.items():
            assert all(len(c) == len(frag) for c in cands)
            assert frag not in cands

    def test_deterministic(self, char_confusion, pinyin_table):
        corpus = ["一年好", "意念好", "四类大", "室内大"] * 2
        a = build_ngram_confusion(corpus, char_confusion, pinyin_table, min_count=2)
        b = build_ngram_confusion(corpus, char_confusion, pinyin_table, min_count=2)
        assert a.entries == b.entries

    def test_empty_corpus_raises(self, char_confusion, pinyin_table):
        with pytest.raises(ConfusionError):
            build_ngram_confusion([], char_confusion, pinyin_table)

    def test_bad_cutoff_raises(self, char_confusion, pinyin_table):
        with pytest.raises(ConfusionError):
            build_ngram_confusion(["一年"], char_confusion, pinyin_table, min_count=0)


class TestLookup:
    def test_absent_fragment(self):
        conf = NgramConfusion()
        conf.add_pair("一年", "意念")
        assert conf.entries.get("甲乙", set()) == set()


class TestNgramSerialization:
    def test_roundtrip(self):
        conf = NgramConfusion()
        conf.add_pair("一年", "意念")
        conf.add_pair("四类", "室内")
        buf = io.StringIO()
        save_ngram_confusion(conf, buf)
        back = load_ngram_confusion(io.StringIO(buf.getvalue()))
        assert back.entries == conf.entries

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfusionError):
            load_ngram_confusion(["一年\t意念念"])
