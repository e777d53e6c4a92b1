import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udspell.confusion import CharConfusion
from udspell.errors import ScorerError
from udspell.lattice import make_lattice
from udspell.scorer import (
    ChannelModel,
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


def lm_logprobs(model, ctx):
    """log P_lm(c | ctx) for every vocabulary character c, read from score_sentence:
    under a channel uniform over the vocabulary, the posterior is the LM's
    distribution, renormalized over a set on which it already sums to 1."""
    vocab = model.vocab
    cc = CharConfusion()
    cc.phonetic[vocab[0]] = set(vocab[1:])
    channel = ChannelModel(cc, p_keep=1 / len(vocab))
    return dict(score_sentence(ctx + vocab[0], model, channel, k=len(vocab)).positions[-1])


class TestTrain:
    def test_bigram_probability_exact(self):
        # "甲乙" twice and "甲丁" once: P(乙|甲) = (2 + a) / (3 + a*|V|)
        model = train(["甲乙", "甲乙", "甲丁"], order=1, alpha=0.1)
        v = len(model.vocab)
        want = math.log((2 + 0.1) / (3 + 0.1 * v))
        assert lm_logprobs(model, "甲")["乙"] == pytest.approx(want)

    def test_unseen_context_backs_off_to_uniform(self):
        model = train(["甲乙"], order=1, alpha=0.1)
        v = len(model.vocab)
        assert lm_logprobs(model, "戊")["乙"] == pytest.approx(math.log(0.1 / (0.1 * v)))

    def test_bad_params(self):
        with pytest.raises(ScorerError):
            train(["甲乙"], order=0)
        for alpha in (0.0, math.nan, math.inf):
            with pytest.raises(ScorerError):
                train(["甲乙"], alpha=alpha)
        with pytest.raises(ScorerError):
            train([])

    def test_alpha_that_underflows_is_refused(self):
        # alpha / (20000 + 2 * alpha) is below the smallest subnormal float
        with pytest.raises(ScorerError, match="alpha 1e-320 underflows"):
            train(["甲乙" * 20000], order=1, alpha=1e-320)
        assert train(["甲乙" * 20000], order=1, alpha=1e-300).alpha == 1e-300

    def test_probabilities_normalize(self):
        """The add-alpha estimate is a distribution over the vocabulary, so
        renormalizing it changes nothing."""
        model = train(["甲乙丙甲乙丁", "乙丙丁"], order=2, alpha=0.1)
        v = len(model.vocab)
        for ctx in list(model.counts)[:5]:
            want = {
                c: math.log((model.counts[ctx][c] + 0.1) / (model.totals[ctx] + 0.1 * v))
                for c in model.vocab
            }
            assert lm_logprobs(model, ctx) == pytest.approx(want, abs=1e-9)


class TestSerialization:
    def test_roundtrip(self):
        model = train(["甲乙丙", "甲乙丁"], order=2, alpha=0.25)
        buf = io.StringIO()
        save_model(model, buf)
        back = load_model(io.StringIO(buf.getvalue()))
        assert back.order == 2 and back.alpha == 0.25
        assert back.vocab == model.vocab
        assert back.counts == model.counts

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_roundtrip_corpus_with_tabs(self, order):
        model = train(["甲\t乙丙", "\t\t", "#\t甲"], order=order)
        buf = io.StringIO()
        save_model(model, buf)
        assert load_model(io.StringIO(buf.getvalue())) == model

    def test_byte_stable(self):
        a, b = io.StringIO(), io.StringIO()
        save_model(train(["甲乙丙"] * 3, order=2), a)
        save_model(train(["甲乙丙"] * 3, order=2), b)
        assert a.getvalue() == b.getvalue()

    def test_bad_header(self):
        with pytest.raises(ScorerError):
            load_model(["nonsense\n"])
        for alpha in ("nan", "inf"):
            with pytest.raises(ScorerError):
                load_model([f"#udspell-ngram\t1\t2\t{alpha}\n", "#vocab\t甲乙\n"])

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
        assert type(model.counts) is dict  # a lookup of an unseen context adds nothing


class TestChannel:
    def test_keep_probability(self):
        ch = ChannelModel(tiny_confusion(), p_keep=0.9)
        tokens, logps = ch.entry("乙")
        assert tokens == ("乙", "丁")
        assert logps == pytest.approx((math.log(0.9), math.log(0.1)))

    def test_char_without_candidates_keeps_certainly(self):
        ch = ChannelModel(tiny_confusion(), p_keep=0.9)
        assert ch.entry("甲") == (("甲",), (0.0,))

    @pytest.mark.parametrize("table", ["phonetic", "morphological"])
    def test_self_candidate_is_ignored(self, table):
        with_self = CharConfusion(**{table: {"甲": {"甲", "乙"}, "丙": {"丙"}}})
        without = CharConfusion(**{table: {"甲": {"乙"}}})
        for ch in "甲丙":
            got = ChannelModel(with_self, p_keep=0.9).entry(ch)
            assert got == ChannelModel(without, p_keep=0.9).entry(ch)
        assert ChannelModel(with_self, p_keep=0.9).entry("甲")[1] == pytest.approx(
            (math.log(0.9), math.log(0.1))
        )

    def test_bad_p_keep(self):
        with pytest.raises(ScorerError):
            ChannelModel(tiny_confusion(), p_keep=0.0)

    @pytest.mark.parametrize("table", ["phonetic", "morphological"])
    @pytest.mark.parametrize("bad", ["", "丙丁"])
    def test_rejects_candidate_not_one_character(self, table, bad):
        cc = tiny_confusion()
        getattr(cc, table)["乙"] = {"丙", bad}
        ch = ChannelModel(cc)
        assert ch.entry("丁")[0] == ("丁", "乙")  # only the bad entry is refused
        with pytest.raises(ScorerError, match="not one character"):
            ch.entry("乙")
        with pytest.raises(ScorerError, match="not one character"):
            score_sentence("甲乙", train(["甲乙"], order=1), ch)


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
        by_tok = dict(pos)
        for tok, p in joint.items():
            assert by_tok[tok] == pytest.approx(math.log(p / z), abs=1e-6)

    def test_lattice_shape_and_order(self):
        model = train(["甲乙丙", "甲丁丙"], order=2)
        ch = ChannelModel(tiny_confusion())
        lat = score_sentence("甲乙丙", model, ch, k=5)
        assert lat.input == "甲乙丙" and len(lat.positions) == 3
        for pos in lat.positions:
            lps = [lp for _, lp in pos]
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
        assert lat.positions[1] == (("乙", 0.0),)

    def test_bad_k(self):
        model = train(["甲乙"], order=1)
        with pytest.raises(ScorerError):
            score_sentence("甲乙", model, ChannelModel(tiny_confusion()), k=0)


def reference_score_sentence(sentence, lm, ch, k, id):
    """score_sentence step by step, checked and ordered by make_lattice: the LM
    log-probabilities, a log-sum-exp over a generator, a clamp at 0 and a sort
    by key. The oracle for the positions that score_sentence builds once."""
    padded = "\x02" * lm.order + sentence
    positions = []
    for j, obs in enumerate(sentence):
        cands, channel = ch.entry(obs)
        ctx = padded[j : j + lm.order]
        counter = lm.counts.get(ctx) or {}
        denom = lm.totals.get(ctx, 0) + lm.alpha * max(1, len(lm.vocab))
        lm_lps = [math.log((counter.get(c, 0) + lm.alpha) / denom) for c in cands]
        scores = [a + b for a, b in zip(lm_lps, channel)]
        m = max(scores)
        norm = m if m == -math.inf else m + math.log(sum(math.exp(x - m) for x in scores))
        scored = [(t, min(s - norm, 0.0)) for t, s in zip(cands, scores) if s > -math.inf]
        scored.sort(key=lambda p: (-p[1], p[0]))
        positions.append(scored[:k])
    return make_lattice(id or sentence, sentence, positions)


ALPHABET = "甲乙丙丁戊己"


@st.composite
def scoring_cases(draw):
    corpus = draw(st.lists(st.text(ALPHABET, max_size=8), min_size=1, max_size=6))
    if not "".join(corpus):
        corpus.append("甲")
    lm = train(corpus, order=draw(st.integers(1, 3)), alpha=draw(st.floats(0.001, 5.0)))
    # a character may have no entry, an empty set, or several candidates
    confusion_sets = st.dictionaries(
        st.sampled_from(ALPHABET + "庚"), st.sets(st.sampled_from(ALPHABET + "庚辛"), max_size=5)
    )
    cc = CharConfusion(phonetic=draw(confusion_sets), morphological=draw(confusion_sets))
    p_keep = draw(st.one_of(st.just(1.0), st.floats(0.01, 1.0)))
    sentence = draw(st.text(ALPHABET + "庚辛壬", min_size=1, max_size=12))
    k, id = draw(st.integers(1, 6)), draw(st.sampled_from(["", "r"]))
    return sentence, lm, ChannelModel(cc, p_keep=p_keep), k, id


class TestScoreSentenceMatchesReference:
    @given(scoring_cases())
    @settings(max_examples=200, deadline=None)
    def test_same_tokens_and_logps(self, case):
        sentence, lm, ch, k, id = case
        got = score_sentence(sentence, lm, ch, k=k, id=id)
        want = reference_score_sentence(sentence, lm, ch, k, id)
        assert (got.id, got.input) == (want.id, want.input)
        assert len(got.positions) == len(want.positions)
        for g, w in zip(got.positions, want.positions):
            assert [t for t, _ in g] == [t for t, _ in w]
            assert [repr(lp) for _, lp in g] == [repr(lp) for _, lp in w]
            assert all(type(lp) is float for _, lp in g)
        assert make_lattice(got.id, got.input, got.positions) == got


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
