import io
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udspell.confusion import CharConfusion
from udspell.ecm import (
    EcmConfig,
    _corrupt,
    _draw_other,
    generate_corpus,
    write_records,
)
from udspell.errors import EcmError


def corrupt(sentence, cc, ng, cfg, rng):
    return _corrupt(sentence, cc, ng, cfg, rng, cc.inventory())


def unchanged_only_cfg(seed=0):
    return EcmConfig(
        p_pronunciation=0, p_shape=0, p_random=0, p_unchanged=1.0, seed=seed
    )


def typed_cfg(error_type, seed=0):
    probs = {"p_pronunciation": 0.0, "p_shape": 0.0, "p_random": 0.0, "p_unchanged": 0.0}
    probs[f"p_{'pronunciation' if error_type == 'pronunciation' else error_type}"] = 1.0
    return EcmConfig(seed=seed, **probs)


class TestEcmConfig:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(EcmError):
            EcmConfig(p_pronunciation=0.5, p_shape=0.5, p_random=0.5, p_unchanged=0.5)

    def test_negative_probability_rejected(self):
        with pytest.raises(EcmError):
            EcmConfig(p_pronunciation=-0.1, p_shape=0.7, p_random=0.2, p_unchanged=0.2)

    def test_nan_probability_rejected(self):
        with pytest.raises(EcmError):
            EcmConfig(p_pronunciation=math.nan)

    def test_max_ratio_range(self):
        with pytest.raises(EcmError):
            EcmConfig(max_ratio=0.0)


class TestCorruptSentence:
    def test_unchanged_is_identity(self, dense_confusion):
        chars, cc, ng = dense_confusion
        s = "".join(chars[:10])
        rec = corrupt(s, cc, ng, unchanged_only_cfg(), random.Random(0))
        assert rec.source == rec.target == s
        assert rec.edits == () and not rec.degraded

    def test_budget_respected(self, dense_confusion):
        chars, cc, ng = dense_confusion
        rng = random.Random(1)
        for _ in range(200):
            s = "".join(rng.choice(chars) for _ in range(rng.randint(7, 40)))
            rec = corrupt(s, cc, ng, typed_cfg("pronunciation"), rng)
            edited = sum(len(e.orig) for e in rec.edits)
            assert edited <= math.floor(0.15 * len(s))

    def test_length_ten_at_most_one_edit_char(self, dense_confusion):
        chars, cc, ng = dense_confusion
        rng = random.Random(2)
        for _ in range(50):
            s = "".join(rng.choice(chars) for _ in range(10))
            rec = corrupt(s, cc, ng, typed_cfg("shape"), rng)
            assert sum(len(e.orig) for e in rec.edits) <= 1

    def test_edits_verified_against_confusion_sets(self, dense_confusion):
        chars, cc, ng = dense_confusion
        rng = random.Random(3)
        for _ in range(300):
            s = "".join(rng.choice(chars) for _ in range(20))
            rec = corrupt(s, cc, ng, typed_cfg("pronunciation"), rng)
            for e in rec.edits:
                if len(e.orig) == 1:
                    assert e.repl in cc.phonetic[e.orig]
                else:
                    assert e.repl in ng[e.orig]

    def test_fragment_edits_never_overlap_earlier_edits(self, dense_confusion):
        chars, cc, ng = dense_confusion
        rng = random.Random(4)
        fragments = 0
        for _ in range(300):
            # fragments back to back, so that most positions start one
            s = "".join(rng.choice([chars[0] + chars[1], "".join(chars[2:5])]) for _ in range(16))
            rec = corrupt(s, cc, ng, typed_cfg("pronunciation"), rng)
            covered = [i for e in rec.edits for i in range(e.pos, e.pos + len(e.orig))]
            assert len(covered) == len(set(covered))
            for e in rec.edits:
                assert rec.source[e.pos : e.pos + len(e.repl)] == e.repl
            fragments += sum(len(e.orig) > 1 for e in rec.edits)
        assert fragments

    def test_shape_edits_single_char_only(self, dense_confusion):
        chars, cc, ng = dense_confusion
        rng = random.Random(4)
        for _ in range(100):
            s = "".join(rng.choice(chars) for _ in range(20))
            rec = corrupt(s, cc, ng, typed_cfg("shape"), rng)
            for e in rec.edits:
                assert len(e.orig) == 1
                assert e.repl in cc.morphological[e.orig]

    def test_source_target_length_equal(self, dense_confusion):
        chars, cc, ng = dense_confusion
        rng = random.Random(5)
        for _ in range(100):
            s = "".join(rng.choice(chars) for _ in range(15))
            rec = corrupt(s, cc, ng, typed_cfg("random"), rng)
            assert len(rec.source) == len(rec.target)

    def test_non_chinese_characters_untouched(self, dense_confusion):
        chars, cc, ng = dense_confusion
        s = "a1," + "".join(chars[:12]) + "b."
        rng = random.Random(6)
        for _ in range(50):
            rec = corrupt(s, cc, ng, typed_cfg("random"), rng)
            for e in rec.edits:
                assert all("一" <= c <= "鿿" for c in e.orig)

    def test_no_candidates_degrades_flagged(self):
        cc = CharConfusion()  # empty: nothing is editable under shape
        rec = corrupt("一二三四五六七八九十", cc, {}, typed_cfg("shape"), random.Random(0))
        assert rec.source == rec.target
        assert rec.error_type == "unchanged" and rec.degraded

    def test_short_sentence_budget_zero_degrades(self, dense_confusion):
        chars, cc, ng = dense_confusion
        rec = corrupt(
            "".join(chars[:4]), cc, ng, typed_cfg("pronunciation"), random.Random(0)
        )
        assert rec.source == rec.target and rec.degraded

    def test_empty_sentence_raises(self, dense_confusion):
        _, cc, ng = dense_confusion
        with pytest.raises(EcmError):
            corrupt("", cc, ng, EcmConfig(), random.Random(0))


ALPHABET = [chr(ord("一") + i) for i in range(40)]


def draw_from_copy(rng, pool, orig):
    cands = [c for c in pool if c != orig]
    return rng.choice(cands) if cands else None


class TestRandomDraw:
    """The random-type draw equals ``rng.choice`` of the inventory without the
    original, in the character drawn and in the state it leaves ``rng`` in."""

    def check(self, pool, orig, seed):
        copy_rng, draw_rng = random.Random(seed), random.Random(seed)
        assert _draw_other(draw_rng, pool, orig) == draw_from_copy(copy_rng, pool, orig)
        assert draw_rng.getstate() == copy_rng.getstate()

    @given(
        st.lists(st.sampled_from(ALPHABET), unique=True).map(sorted),
        st.sampled_from(ALPHABET),
        st.integers(0, 2**32),
    )
    @settings(max_examples=500, deadline=None)
    def test_same_char_and_state(self, pool, orig, seed):
        self.check(pool, orig, seed)

    @pytest.mark.parametrize("size", [1, 2, 3, 5000])
    @pytest.mark.parametrize("where", ["absent", "first", "last", "middle"])
    def test_orig_placements(self, size, where):
        pool = ALPHABET[:1] + [chr(0x4E80 + i) for i in range(size - 1)]
        orig = {"absent": "丁", "first": pool[0], "last": pool[-1], "middle": pool[size // 2]}
        for seed in range(20):
            self.check(pool, orig[where], seed)


class TestGenerateCorpus:
    def test_deterministic_given_seed(self, dense_confusion):
        chars, cc, ng = dense_confusion
        rng = random.Random(7)
        sents = ["".join(rng.choice(chars) for _ in range(12)) for _ in range(200)]
        cfg = EcmConfig(seed=42)
        a = list(generate_corpus(sents, cc, ng, cfg))
        b = list(generate_corpus(sents, cc, ng, cfg))
        assert a == b

    def test_different_seed_differs(self, dense_confusion):
        chars, cc, ng = dense_confusion
        rng = random.Random(8)
        sents = ["".join(rng.choice(chars) for _ in range(12)) for _ in range(100)]
        a = list(generate_corpus(sents, cc, ng, EcmConfig(seed=1)))
        b = list(generate_corpus(sents, cc, ng, EcmConfig(seed=2)))
        assert a != b

    def test_type_distribution_roughly_matches(self, dense_confusion):
        chars, cc, ng = dense_confusion
        rng = random.Random(9)
        sents = ["".join(rng.choice(chars) for _ in range(12)) for _ in range(2000)]
        types = Counter(r.error_type for r in generate_corpus(sents, cc, ng, EcmConfig(seed=0)))
        for name, expected in [
            ("pronunciation", 0.30),
            ("shape", 0.30),
            ("random", 0.20),
            ("unchanged", 0.20),
        ]:
            assert abs(types[name] / 2000 - expected) < 0.04

    def test_self_candidates_make_no_edit(self):
        # 甲乙 may only become itself; 甲 and 乙 only themselves, 丙 also 丁
        cc = CharConfusion(
            phonetic={"甲": {"甲"}, "乙": {"乙"}, "丙": {"丙", "丁"}},
            morphological={"甲": {"甲"}, "乙": {"乙"}, "丙": {"丙", "丁"}},
        )
        ng = {"甲乙": {"甲乙"}}
        sents = ["甲乙甲乙甲乙甲乙甲乙丙", "甲乙甲乙甲乙甲乙甲乙甲"] * 50
        cfg = EcmConfig(p_pronunciation=0.5, p_shape=0.5, p_random=0.0, p_unchanged=0.0)
        recs = list(generate_corpus(sents, cc, ng, cfg))
        assert all(e.orig != e.repl for r in recs for e in r.edits)
        assert all(r.error_type == "unchanged" for r in recs if not r.edits)
        assert all(r.source != r.target for r in recs if r.edits)
        assert any(r.edits for r in recs)

    def test_candidate_less_corpus_all_degraded(self):
        cc = CharConfusion()
        cfg = EcmConfig(p_pronunciation=0.5, p_shape=0.5, p_random=0.0, p_unchanged=0.0)
        recs = list(generate_corpus(["一二三四五六七八九十"] * 50, cc, {}, cfg))
        assert all(r.source == r.target and r.degraded for r in recs)


class TestOutput:
    def test_write_records_summary(self, dense_confusion):
        chars, cc, ng = dense_confusion
        sents = ["".join(chars[:12])] * 10
        recs = list(generate_corpus(sents, cc, ng, EcmConfig(seed=3)))
        buf = io.StringIO()
        write_records(recs, buf)
        lines = buf.getvalue().splitlines()
        assert len([ln for ln in lines if not ln.startswith("#")]) == 10
        assert any(ln.startswith("# records=10") for ln in lines)
