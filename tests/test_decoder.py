import math
import random

import pytest

from udspell.decoder import (
    DecodeConfig,
    decode,
    decode_corpus,
    decode_exhaustive,
    path_edits,
)
from udspell.dictionary import UserDictionary, asm_reward
from udspell.errors import DecodeError
from udspell.lattice import (
    Candidate,
    PruneConfig,
    greedy_path,
    make_lattice,
    prune,
)

from conftest import VOCAB, random_lattice

EMPTY = UserDictionary(())


def lat_of(input_s, rows, lattice_id="t"):
    return make_lattice(
        lattice_id, input_s, [[Candidate(t, lp) for t, lp in row] for row in rows]
    )


def fig3_lattice():
    inp = "人民监查员依法审查案件"
    rank2 = {2: ("监", "检", -2.0), 3: ("查", "察", -1.5), 4: ("员", "院", -2.5)}
    rows = []
    for j, ch in enumerate(inp):
        if j in rank2:
            top, second, lp = rank2[j]
            rows.append([(top, -0.1), (second, lp)])
        else:
            rows.append([(ch, -0.01)])
    return lat_of(inp, rows, "fig3")


def med_lattice():
    # "剂" wrongly loses to "计" on raw score; "米坐" loses to "咪唑"
    inp = "患者需要按照剂量服用甲苯米坐片"
    rows = []
    for j, ch in enumerate(inp):
        if j == 6:
            rows.append([("计", -0.2), ("剂", -1.0)])
        elif j == 12:
            rows.append([("米", -0.1), ("咪", -2.0)])
        elif j == 13:
            rows.append([("坐", -0.1), ("唑", -2.5)])
        else:
            rows.append([(ch, -0.01)])
    return lat_of(inp, rows, "med")


def random_dictionary(rng, vocab=VOCAB, max_terms=5):
    terms = set()
    for _ in range(rng.randint(0, max_terms)):
        terms.add("".join(rng.choice(vocab) for _ in range(rng.randint(2, 4))))
    return UserDictionary(terms)


def long_lattice(n=450):
    cands = VOCAB[:5]
    return lat_of(cands[0] * n, [[(t, -1.0 - i) for i, t in enumerate(cands)]] * n, "long")


def dense_lattice(rng, lattice_id):
    """8 x 3 lattice plus 2-5-char terms spelled by its own candidates: many
    overlapping rewarded spans, so few hypotheses share a search key."""
    rows = []
    for _ in range(8):
        lps = sorted((rng.uniform(-8.0, -0.01) for _ in range(3)), reverse=True)
        rows.append(list(zip(rng.sample(VOCAB, 3), lps)))
    inp = "".join(row[0][0] if rng.random() < 0.7 else rng.choice(row)[0] for row in rows)
    terms = set()
    for _ in range(6):
        ln = rng.randint(2, 5)
        start = rng.randint(0, 8 - ln)
        terms.add("".join(rng.choice(rows[j])[0] for j in range(start, start + ln)))
    return lat_of(inp, rows, lattice_id), UserDictionary(terms)


class TestDecodeConfig:
    def test_defaults(self):
        cfg = DecodeConfig()
        assert cfg.eta == 4.0
        assert (cfg.prune.min_logp, cfg.prune.max_logp, cfg.prune.k) == (-11.0, -0.001, 5)

    def test_invalid_rejected(self):
        with pytest.raises(DecodeError):
            DecodeConfig(eta=-1)
        with pytest.raises(DecodeError):
            DecodeConfig(asm_count_mode="bogus")


class TestDegeneracy:
    def test_empty_dictionary_equals_greedy(self):
        rng = random.Random(0)
        for i in range(100):
            lat = random_lattice(rng, lattice_id=str(i))
            cfg = DecodeConfig(prune=PruneConfig.disabled())
            assert decode(lat, EMPTY, cfg).tokens == greedy_path(lat).tokens

    def test_eta_zero_equals_greedy_over_pruned(self):
        rng = random.Random(1)
        for i in range(100):
            lat = random_lattice(rng, lattice_id=str(i))
            cfg = DecodeConfig(eta=0.0)
            dic = random_dictionary(rng)
            assert decode(lat, dic, cfg).tokens == greedy_path(prune(lat, cfg.prune)).tokens


class TestFixtures:
    def test_fig3_flip_with_dictionary(self):
        lat = fig3_lattice()
        dic = UserDictionary({"人民检察院", "审查案件"})
        assert decode(lat, dic).tokens == "人民检察院依法审查案件"

    def test_fig3_reverts_without_dictionary(self):
        assert decode(fig3_lattice(), EMPTY).tokens == "人民监查员依法审查案件"

    def test_med_flip_and_rsm_preservation(self):
        lat = med_lattice()
        dic = UserDictionary({"甲苯咪唑", "剂量"})
        assert decode(lat, dic).tokens == "患者需要按照剂量服用甲苯咪唑片"

    def test_med_reverts_without_dictionary(self):
        assert decode(med_lattice(), EMPTY).tokens == "患者需要按照计量服用甲苯米坐片"


class TestExhaustive:
    def test_single_path(self):
        lat = lat_of("甲乙", [[("甲", -0.5)], [("乙", -0.5)]])
        p = decode_exhaustive(lat, EMPTY, DecodeConfig(prune=PruneConfig.disabled()))
        assert p.tokens == "甲乙"

    def test_refuses_oversized_search(self):
        lat = lat_of("甲乙", [[("甲", -0.5), ("乙", -0.6)], [("乙", -0.5), ("丙", -0.6)]])
        with pytest.raises(DecodeError):
            decode_exhaustive(lat, EMPTY, DecodeConfig(prune=PruneConfig.disabled()), max_paths=1)

    def test_decode_matches_oracle(self):
        rng = random.Random(3)
        for i in range(150):
            lat = random_lattice(rng, lattice_id=str(i))
            dic = random_dictionary(rng)
            for eta in (0.0, 1.0, 4.0):
                cfg = DecodeConfig(eta=eta)
                b = decode(lat, dic, cfg)
                e = decode_exhaustive(lat, dic, cfg)
                assert (b.tokens, b.total) == (e.tokens, e.total)

    @pytest.mark.parametrize("mode", ["covered", "altered"])
    def test_dense_lattices_match_oracle(self, mode):
        rng = random.Random(7)
        cfg = DecodeConfig(asm_count_mode=mode)
        for i in range(20):
            lat, dic = dense_lattice(rng, str(i))
            b = decode(lat, dic, cfg)
            e = decode_exhaustive(lat, dic, cfg)
            assert (b.tokens, b.total) == (e.tokens, e.total), lat.id


class TestInvariants:
    def test_rsm_supremacy(self):
        # lattice strongly prefers an alternative, but the input span is in the dictionary
        inp = "审查案件"
        rows = [[("神", -0.1), ("审", -9.0)]] + [[(c, -0.01)] for c in inp[1:]]
        lat = lat_of(inp, rows)
        dic = UserDictionary({"审查案件"})
        assert decode(lat, dic).tokens == inp

    def test_reward_monotone_in_dictionary(self):
        rng = random.Random(4)
        for i in range(60):
            lat = random_lattice(rng, lattice_id=str(i))
            terms = random_dictionary(rng).terms
            extra = terms | {"".join(rng.choice(VOCAB) for _ in range(2))}
            small = decode(lat, UserDictionary(terms)).total
            big = decode(lat, UserDictionary(extra)).total
            assert big >= small - 1e-12

    def test_score_identity_recheck(self):
        rng = random.Random(5)
        for i in range(60):
            lat = random_lattice(rng, lattice_id=str(i))
            dic = random_dictionary(rng)
            p = decode(lat, dic)
            recheck = asm_reward(lat.input, p.tokens, dic)
            assert p.dict_score == recheck
            assert p.total == pytest.approx(p.raw_score + 4.0 * recheck)

    def test_empty_position_after_prune_impossible(self):
        rng = random.Random(6)
        for i in range(60):
            lat = random_lattice(rng, lattice_id=str(i))
            decode(lat, EMPTY)  # must not raise


class TestDecodeCorpus:
    def test_fixed_corpus(self):
        lats = [
            lat_of("甲乙", [[("甲", -0.0001)], [("乙", -0.0001)]], lattice_id=str(i))
            for i in range(5)
        ]
        results, diag = decode_corpus(lats, EMPTY)
        assert all(p.tokens == lat.input for lat, p in results)
        assert diag.log10_avg_path_count == 0.0
        assert diag.flip_count == 0

    def test_deterministic(self):
        rng = random.Random(7)
        lats = [random_lattice(rng, lattice_id=str(i)) for i in range(30)]
        dic = UserDictionary({"甲乙"})
        a, _ = decode_corpus(lats, dic)
        b, _ = decode_corpus(lats, dic)
        assert [p.tokens for _, p in a] == [p.tokens for _, p in b]

    def test_matches_precomputed_oracle(self):
        rng = random.Random(8)
        lats = [random_lattice(rng, lattice_id=str(i)) for i in range(100)]
        dic = random_dictionary(rng)
        oracle = [decode_exhaustive(lat, dic).tokens for lat in lats]
        results, _ = decode_corpus(lats, dic)
        assert [p.tokens for _, p in results] == oracle

    def test_prunes_each_lattice_once(self, monkeypatch):
        import udspell.decoder as decoder_mod
        import udspell.lattice as lattice_mod

        calls = []

        def counting_prune(lat, cfg):
            calls.append(lat.id)
            return prune(lat, cfg)

        # the path count must reuse the decode's pruned lattice, not prune again
        monkeypatch.setattr(decoder_mod, "prune", counting_prune)
        monkeypatch.setattr(lattice_mod, "prune", counting_prune)
        rng = random.Random(9)
        lats = [random_lattice(rng, lattice_id=str(i)) for i in range(20)]
        dic = random_dictionary(rng)
        results, _ = decode_corpus(lats, dic)
        assert calls == [lat.id for lat in lats]
        alone = [decode(lat, dic) for lat in lats]
        assert [(p.tokens, p.total) for _, p in results] == [(p.tokens, p.total) for p in alone]

    def test_path_count_beyond_float_range(self):
        # 5**450 paths: the average path count no longer fits a float
        lat = long_lattice()
        results, diag = decode_corpus([lat], EMPTY)
        assert [p.tokens for _, p in results] == [lat.input]
        assert diag.log10_avg_path_count == pytest.approx(450 * math.log10(5))


class TestPathEdits:
    def test_edit_extraction(self):
        edits = path_edits("甲乙丙", "甲戊丙")
        assert [(e.pos, e.orig, e.repl) for e in edits] == [(1, "乙", "戊")]
