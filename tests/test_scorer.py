import io
import math

import pytest

from udspell.confusion import CharConfusion
from udspell.errors import ScorerError
from udspell.scorer import (
    ChannelModel,
    NgramModel,
    load_model,
    save_model,
    score_corpus,
    score_sentence,
    train,
)


def tiny_confusion():
    cc = CharConfusion()
    cc.phonetic["乙"] = {"丁"}
    cc.phonetic["丁"] = {"乙"}
    return cc


class TestTrain:
    def test_bigram_probability_exact(self):
        # "甲乙" twice and "甲丁" once: P(乙|甲) = (2 + a) / (3 + a*|V|)
        model = train(["甲乙", "甲乙", "甲丁"], order=1, alpha=0.1)
        v = len(model.vocab)
        want = math.log((2 + 0.1) / (3 + 0.1 * v))
        assert model.logprob("乙", "甲") == pytest.approx(want)

    def test_unseen_context_backs_off_to_uniform(self):
        model = train(["甲乙"], order=1, alpha=0.1)
        v = len(model.vocab)
        assert model.logprob("乙", "戊") == pytest.approx(math.log(0.1 / (0.1 * v)))

    def test_bad_params(self):
        with pytest.raises(ScorerError):
            train(["甲乙"], order=0)
        with pytest.raises(ScorerError):
            train(["甲乙"], alpha=0.0)
        with pytest.raises(ScorerError):
            train([])

    def test_probabilities_normalize(self):
        model = train(["甲乙丙甲乙丁", "乙丙丁"], order=2)
        for ctx in list(model.counts)[:5]:
            total = sum(math.exp(model.logprob(c, ctx)) for c in model.vocab)
            assert total == pytest.approx(1.0, abs=1e-9)


class TestSerialization:
    def test_roundtrip(self):
        model = train(["甲乙丙", "甲乙丁"], order=2, alpha=0.25)
        buf = io.StringIO()
        save_model(model, buf)
        back = load_model(io.StringIO(buf.getvalue()))
        assert back.order == 2 and back.alpha == 0.25
        assert back.vocab == model.vocab
        assert back.counts == model.counts

    def test_byte_stable(self):
        a, b = io.StringIO(), io.StringIO()
        save_model(train(["甲乙丙"] * 3, order=2), a)
        save_model(train(["甲乙丙"] * 3, order=2), b)
        assert a.getvalue() == b.getvalue()

    def test_bad_header(self):
        with pytest.raises(ScorerError):
            load_model(["nonsense\n"])

    def test_bad_count_names_line(self):
        lines = ["#udspell-ngram\t1\t2\t0.1\n", "#vocab\ta\n", "\x02\x02\ta\tx\n"]
        with pytest.raises(ScorerError, match="line 3"):
            load_model(lines)

    def test_totals_match_counts(self):
        model = train(["甲乙丙", "甲乙丁", "乙丙"], order=2)
        buf = io.StringIO()
        save_model(model, buf)
        back = load_model(io.StringIO(buf.getvalue()))
        for m in (model, back):
            assert m.totals == {ctx: sum(c.values()) for ctx, c in m.counts.items()}


class TestChannel:
    def test_keep_probability(self):
        ch = ChannelModel(tiny_confusion(), p_keep=0.9)
        assert ch.logprob("乙", "乙") == pytest.approx(math.log(0.9))
        assert ch.logprob("乙", "丁") == pytest.approx(math.log(0.1))

    def test_char_without_candidates_keeps_certainly(self):
        ch = ChannelModel(tiny_confusion(), p_keep=0.9)
        assert ch.logprob("甲", "甲") == 0.0

    def test_non_candidate_rejected(self):
        ch = ChannelModel(tiny_confusion())
        with pytest.raises(ScorerError):
            ch.logprob("乙", "戊")

    def test_bad_p_keep(self):
        with pytest.raises(ScorerError):
            ChannelModel(tiny_confusion(), p_keep=0.0)


class TestScoreSentence:
    def test_matches_hand_bayes(self):
        # LM: order 1 over "甲乙","甲乙","甲丁"; observe "甲丁".
        model = train(["甲乙", "甲乙", "甲丁"], order=1, alpha=0.1)
        ch = ChannelModel(tiny_confusion(), p_keep=0.9)
        lat = score_sentence("甲丁", model, ch)
        pos = lat.positions[1]
        v = len(model.vocab)
        lm_yi = (2 + 0.1) / (3 + 0.1 * v)
        lm_ding = (1 + 0.1) / (3 + 0.1 * v)
        joint = {"丁": lm_ding * 0.9, "乙": lm_yi * 0.1}
        z = sum(joint.values())
        by_tok = {c.token: c.logp for c in pos}
        for tok, p in joint.items():
            assert by_tok[tok] == pytest.approx(math.log(p / z), abs=1e-6)

    def test_lattice_shape_and_order(self):
        model = train(["甲乙丙", "甲丁丙"], order=2)
        ch = ChannelModel(tiny_confusion())
        lat = score_sentence("甲乙丙", model, ch, k=5)
        assert lat.input == "甲乙丙" and len(lat.positions) == 3
        for pos in lat.positions:
            lps = [c.logp for c in pos]
            assert lps == sorted(lps, reverse=True)
            assert all(lp <= 0 for lp in lps)

    def test_top_k_cap(self):
        cc = CharConfusion()
        cc.phonetic["乙"] = set("丙丁戊己庚辛")
        model = train(["甲乙丙丁戊己庚辛"], order=1)
        lat = score_sentence("甲乙", model, ChannelModel(cc), k=2)
        assert len(lat.positions[1]) == 2

    def test_p_keep_one_drops_impossible_confusions(self):
        model = train(["甲乙", "甲丁"], order=1)
        lat = score_sentence("甲乙", model, ChannelModel(tiny_confusion(), p_keep=1.0))
        assert [c.token for c in lat.positions[1]] == ["乙"]
        assert lat.positions[1][0].logp == 0.0

    def test_bad_k(self):
        model = train(["甲乙"], order=1)
        with pytest.raises(ScorerError):
            score_sentence("甲乙", model, ChannelModel(tiny_confusion()), k=0)


class TestScoreCorpus:
    def test_ids_are_line_numbers_past_blank_lines(self):
        model = train(["甲乙", "甲丁"], order=1)
        lats = list(score_corpus(["甲乙", "", "  ", "甲丁"], model, ChannelModel(tiny_confusion())))
        assert [(lat.id, lat.input) for lat in lats] == [("0", "甲乙"), ("3", "甲丁")]

    def test_ids_are_indices(self):
        model = train(["甲乙", "甲丁"], order=1)
        lats = list(score_corpus(["甲乙", "甲丁"], model, ChannelModel(tiny_confusion())))
        assert [lat.id for lat in lats] == ["0", "1"]
        assert all(lat.input for lat in lats)
