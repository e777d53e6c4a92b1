import io
from collections import Counter
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from udspell import confusion
from udspell.confusion import (
    CharConfusion,
    build_ngram_confusion,
    chinese_runs,
    load_char_confusion,
    load_ngram_confusion,
    save_ngram_confusion,
)
from udspell.errors import ConfusionError
from udspell.pinyin import PinyinTable, toneless

from conftest import serve_bundled_text


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

    def test_dissimilar_phonetic_kept(self, pinyin_table):
        """The table is kept as given: 衣 shares no fuzzy key with 报."""
        assert not pinyin_table.keys("报") & pinyin_table.keys("衣")
        conf = load_char_confusion(["报\tP\t爆,衣"])
        assert conf.phonetic["报"] == {"爆", "衣"}

    def test_bundled_set_is_split_at_newlines_only(self, monkeypatch):
        # str.splitlines would also split the comment at U+2028
        serve_bundled_text(monkeypatch, confusion, "# a\u2028b\n甲\tP\t乙\n")
        conf = confusion.default_char_confusion()
        assert conf.phonetic == {"甲": {"乙"}} and conf.morphological == {}

    def test_bundled_set_satisfies_similarity(self, char_confusion, pinyin_table):
        for char, cands in char_confusion.phonetic.items():
            for cand in cands:
                assert pinyin_table.keys(char) & pinyin_table.keys(cand), (char, cand)
                assert cand != char


def loop_chinese_runs(sentence):
    """chinese_runs as first written, a loop over the characters: the oracle
    for the regex."""
    runs, cur = [], []
    for c in sentence:
        if "一" <= c <= "鿿":
            cur.append(c)
        elif cur:
            runs.append("".join(cur))
            cur = []
    if cur:
        runs.append("".join(cur))
    return runs


class TestSegmentation:
    def test_chinese_runs(self):
        assert chinese_runs("甲abc乙丙, 丁") == ["甲", "乙丙", "丁"]

    # both ends of the range, their outer neighbours, a non-BMP character,
    # ASCII, a space, a full stop and a newline
    @given(st.text(alphabet=["一", "鿿", "\u4dff", "\ua000", "𠀀", "a", "Z", "1", " ", "。", "\n"]))
    @example("一鿿\u4dff一\ua000鿿𠀀一\n")
    @settings(max_examples=500, deadline=None)
    def test_chinese_runs_equal_the_loop(self, sentence):
        assert chinese_runs(sentence) == loop_chinese_runs(sentence)


class TestBuildNgram:
    def test_phrase_pair_same_pinyin(self, pinyin_table):
        corpus = ["一年一年", "意念意念"] * 3
        conf = build_ngram_confusion(corpus, pinyin_table, min_count=2)
        assert "意念" in conf.get("一年", set())
        assert "一年" in conf.get("意念", set())

    def test_fuzzy_pair_requires_fuzzy(self, pinyin_table):
        corpus = ["四类四类四类", "室内室内室内"]
        fuzzy = build_ngram_confusion(corpus, pinyin_table, min_count=2)
        assert "室内" in fuzzy.get("四类", set())
        exact = build_ngram_confusion(corpus, pinyin_table, min_count=2, fuzzy=False)
        assert "室内" not in exact.get("四类", set())

    def test_tiny_corpus_hand_enumeration(self, pinyin_table):
        # only the bigram pair 一年/意念 is confusable among these grams
        corpus = ["一年好", "一年大", "意念好", "意念大"]
        conf = build_ngram_confusion(corpus, pinyin_table, min_count=2)
        assert len(conf) == 2
        assert conf == {"一年": {"意念"}, "意念": {"一年"}}

    def test_candidates_keep_fragment_length(self, pinyin_table):
        corpus = ["一年好", "一年大", "意念好", "意念大"]
        conf = build_ngram_confusion(corpus, pinyin_table, min_count=2)
        for frag, cands in conf.items():
            assert all(len(c) == len(frag) for c in cands)
            assert frag not in cands

    def test_deterministic(self, pinyin_table):
        corpus = ["一年好", "意念好", "四类大", "室内大"] * 2
        a = build_ngram_confusion(corpus, pinyin_table, min_count=2)
        b = build_ngram_confusion(corpus, pinyin_table, min_count=2)
        assert a == b

    def test_empty_corpus_raises(self, pinyin_table):
        with pytest.raises(ConfusionError):
            build_ngram_confusion([], pinyin_table)

    def test_bad_cutoff_raises(self, pinyin_table):
        with pytest.raises(ConfusionError):
            build_ngram_confusion(["一年"], pinyin_table, min_count=0)


def reference_build_ngram_confusion(corpus, char_conf, pinyin, min_count, fuzzy):
    """build_ngram_confusion as first written, in three passes: harvest the
    frequent grams, pair grams whose characters are position-wise confusable,
    then segment the corpus into phrases and pair the frequent phrases."""

    def greedy_segment(text, words):
        out, i = [], 0
        while i < len(text):
            match = text[i]
            for ln in range(min(4, len(text) - i), 1, -1):
                if text[i : i + ln] in words:
                    match = text[i : i + ln]
                    break
            out.append(match)
            i += len(match)
        return out

    def fragment_keys(frag):
        per_char = []
        for c in frag:
            if c not in pinyin:
                return []
            per_char.append(sorted(pinyin.keys(c, fuzzy)))
        keys = []
        for combo in product(*per_char):
            keys.append(tuple(combo))
            if len(keys) >= 16:
                break
        return keys

    def chars_confusable(a, b):
        if a == b:
            return True
        if b in char_conf.phonetic.get(a, ()) or a in char_conf.phonetic.get(b, ()):
            return True
        return bool(pinyin.keys(a, fuzzy) & pinyin.keys(b, fuzzy))

    conf = {}

    def pair_bucketed(frags):
        buckets = {}
        for frag in sorted(frags):
            for key in fragment_keys(frag):
                buckets.setdefault(key, []).append(frag)
        for members in buckets.values():
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    if a != b and all(chars_confusable(x, y) for x, y in zip(a, b)):
                        conf.setdefault(a, set()).add(b)
                        conf.setdefault(b, set()).add(a)

    gram_counts = Counter()
    for sent in corpus:
        for run in chinese_runs(sent):
            for ln in (2, 3, 4):
                for i in range(len(run) - ln + 1):
                    gram_counts[run[i : i + ln]] += 1
    grams = {g for g, c in gram_counts.items() if c >= min_count}
    pair_bucketed(grams)

    phrase_counts = Counter()
    for sent in corpus:
        for run in chinese_runs(sent):
            for word in greedy_segment(run, grams):
                if len(word) in (2, 3, 4):
                    phrase_counts[word] += 1
    pair_bucketed({p for p, c in phrase_counts.items() if c >= min_count})
    return conf


# fuzzy-initial pairs, tone variants and unrelated syllables
SYLLABLES = ("zha1", "za4", "cha2", "ca3", "shi4", "si4", "li2", "ni3", "ri4", "zha4")
CHARS = "甲乙丙丁戊"
MISSING = "己"  # in the corpus, not in the pinyin table


class TestBuildNgramAgainstReference:
    """The one-pass build adds exactly the pairs of the three-pass reference."""

    readings = st.lists(st.sampled_from(SYLLABLES), min_size=1, max_size=3, unique=True)
    tables = st.fixed_dictionaries(dict.fromkeys(CHARS, readings))
    # sentences repeat, so grams clear the cutoff of 1-3 some of the time
    corpora = st.lists(
        st.text(alphabet=CHARS + MISSING + "，a", min_size=2, max_size=12), min_size=1, max_size=6
    ).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    # arbitrary phonetic candidates, which the reference's re-check also accepted
    char_sets = st.dictionaries(
        st.sampled_from(CHARS), st.sets(st.sampled_from(CHARS), max_size=3), max_size=4
    )

    @given(tables, corpora, char_sets, st.integers(1, 3), st.booleans())
    @example(
        {"甲": ["zha1", "cha2"], "乙": ["za4"], "丙": ["si4", "shi4"], "丁": ["shi4"], "戊": ["ri4"]},
        ["甲丙甲丙", "乙丁乙丁", "甲丁己"],
        {},
        1,
        True,
    )
    @settings(max_examples=300, deadline=None)
    def test_same_entries(self, table, corpus, char_sets, min_count, fuzzy):
        pinyin = PinyinTable({c: tuple(map(toneless, rs)) for c, rs in table.items()})
        char_conf = CharConfusion(phonetic=char_sets)
        expected = reference_build_ngram_confusion(corpus, char_conf, pinyin, min_count, fuzzy)
        got = build_ngram_confusion(corpus, pinyin, min_count=min_count, fuzzy=fuzzy)
        assert got == expected


class TestLookup:
    def test_absent_fragment(self):
        conf = load_ngram_confusion(["一年\t意念"])
        assert conf == {"一年": {"意念"}}
        assert conf.get("甲乙", set()) == set()


class TestNgramSerialization:
    def test_roundtrip(self):
        conf = {"一年": {"意念"}, "意念": {"一年"}, "四类": {"室内"}, "室内": {"四类"}}
        buf = io.StringIO()
        save_ngram_confusion(conf, buf)
        back = load_ngram_confusion(io.StringIO(buf.getvalue()))
        assert back == conf

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfusionError):
            load_ngram_confusion(["一年\t意念念"])
