import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udspell.decoder import CorpusDiagnostics, DecodeConfig, decode, decode_corpus
from udspell.dictionary import UserDictionary
from udspell.errors import DecodeError
from udspell.lattice import PruneConfig, make_lattice, prune

from conftest import NO_PRUNE, VOCAB, argmax_tokens, random_lattice
from oracle import brute_decode, positions, reference, workloads

EMPTY = UserDictionary(())


def lat_of(input_s, rows, lattice_id="t"):
    return make_lattice(lattice_id, input_s, rows)


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


# few distinct values, signed zeros included, so exact ties are common
TIE_LOGPS = (0.0, -0.0, -0.5, -1.0, -1.5)


@st.composite
def tie_heavy_case(draw):
    """A lattice of <= 6 positions x <= 4 candidates over 4 characters, terms
    spelled by its candidates, and a config with nothing pruned."""
    chars = VOCAB[:4]
    n = draw(st.integers(1, 6))
    rows = [
        [(t, draw(st.sampled_from(TIE_LOGPS)))
         for t in draw(st.lists(st.sampled_from(chars), min_size=1, max_size=4, unique=True))]
        for _ in range(n)
    ]
    lat = lat_of("".join(draw(st.sampled_from(chars)) for _ in range(n)), rows)
    terms = set()
    if n >= 2:
        for _ in range(draw(st.integers(0, 4))):
            start = draw(st.integers(0, n - 2))
            stop = draw(st.integers(start + 2, min(n, start + 4)))
            terms.add("".join(draw(st.sampled_from(row))[0] for row in rows[start:stop]))
    cfg = DecodeConfig(
        eta=draw(st.sampled_from((0.0, 0.5, 4.0))),
        prune=NO_PRUNE,
        asm_count_mode=draw(st.sampled_from(("covered", "altered"))),
    )
    return lat, UserDictionary(terms), cfg


@st.composite
def reference_case(draw):
    """A lattice of <= 8 positions x <= 7 candidates, terms spelled by its
    candidates or its input, and a config under either pruning."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    lat = random_lattice(rng, max_n=8, max_k=7)
    n = len(lat.input)
    terms = set()
    for _ in range(rng.randint(0, 5) if n >= 2 else 0):
        ln = rng.randint(2, min(4, n))
        start = rng.randint(0, n - ln)
        if rng.random() < 0.3:
            terms.add(lat.input[start : start + ln])
        else:
            spans = lat.positions[start : start + ln]
            terms.add("".join(rng.choice(cands)[0] for cands in spans))
    cfg = DecodeConfig(
        eta=draw(st.sampled_from((0.0, 0.5, 4.0, 10.0))),
        prune=draw(st.sampled_from((PruneConfig(), NO_PRUNE))),
        asm_count_mode=draw(st.sampled_from(("covered", "altered"))),
    )
    return lat, UserDictionary(terms), cfg


class TestDecodeConfig:
    def test_defaults(self):
        cfg = DecodeConfig()
        assert cfg.eta == 4.0
        assert (cfg.prune.min_logp, cfg.prune.max_logp, cfg.prune.k) == (-11.0, -0.001, 5)

    def test_invalid_rejected(self):
        for eta in (-1, math.nan, math.inf):
            with pytest.raises(DecodeError):
                DecodeConfig(eta=eta)
        with pytest.raises(DecodeError):
            DecodeConfig(asm_count_mode="bogus")


class TestDegeneracy:
    def test_empty_dictionary_equals_greedy(self):
        rng = random.Random(0)
        for i in range(100):
            lat = random_lattice(rng, lattice_id=str(i))
            cfg = DecodeConfig(prune=NO_PRUNE)
            assert decode(lat, EMPTY, cfg).tokens == argmax_tokens(lat)

    def test_eta_zero_equals_greedy_over_pruned(self):
        rng = random.Random(1)
        for i in range(100):
            lat = random_lattice(rng, lattice_id=str(i))
            cfg = DecodeConfig(eta=0.0)
            dic = random_dictionary(rng)
            assert decode(lat, dic, cfg).tokens == argmax_tokens(prune(lat, cfg.prune))


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
        cfg = DecodeConfig(prune=NO_PRUNE)
        p = decode(lat, EMPTY, cfg)
        assert (p.tokens, p.raw_score, p.dict_score, p.total) == ("甲乙", -1.0, 0, -1.0)
        assert brute_decode(lat, EMPTY, cfg) == ("甲乙", -1.0, 0, -1.0)

    def test_decode_matches_oracle(self):
        rng = random.Random(3)
        for i in range(150):
            lat = random_lattice(rng, lattice_id=str(i))
            dic = random_dictionary(rng)
            for eta in (0.0, 1.0, 4.0):
                cfg = DecodeConfig(eta=eta)
                b = decode(lat, dic, cfg)
                tokens, _, _, total = brute_decode(lat, dic, cfg)
                assert (b.tokens, b.total) == (tokens, total)

    @pytest.mark.parametrize("mode", ["covered", "altered"])
    def test_dense_lattices_match_oracle(self, mode):
        rng = random.Random(7)
        cfg = DecodeConfig(asm_count_mode=mode)
        for i in range(20):
            lat, dic = dense_lattice(rng, str(i))
            b = decode(lat, dic, cfg)
            tokens, _, _, total = brute_decode(lat, dic, cfg)
            assert (b.tokens, b.total) == (tokens, total), lat.id

    @given(tie_heavy_case())
    @settings(max_examples=300, deadline=None)
    def test_tie_heavy_lattices_match_oracle(self, case):
        lat, dic, cfg = case
        b = decode(lat, dic, cfg)
        assert (b.tokens, b.raw_score, b.dict_score) == brute_decode(lat, dic, cfg)[:3]
        # with no input span pinned, a best path that earns no reward has the
        # highest raw score of all paths, so the dictionary changes nothing
        if b.dict_score == 0 and not (cfg.eta and any(t in lat.input for t in dic.terms)):
            assert (b.tokens, b.raw_score) == brute_decode(lat, EMPTY, cfg)[:2]

    @given(reference_case())
    @settings(max_examples=300, deadline=None)
    def test_total_matches_reference_program(self, case):
        lat, dic, cfg = case
        want = reference.best_total(
            lat.input, positions(lat, dic, cfg), dic.terms, cfg.eta, cfg.asm_count_mode
        )
        assert abs(decode(lat, dic, cfg).total - want) <= 1e-9

    @pytest.mark.parametrize("mode", ["covered", "altered"])
    def test_benchmark_lattices_match_reference_program(self, mode):
        # 60 positions x 5 candidates and 2-8-character terms drawn from the
        # candidates: longer than any lattice brute force or reference_case reach
        inputs = workloads.make_inputs("dense", 7)
        dic = UserDictionary(inputs.terms)
        cfg = DecodeConfig(asm_count_mode=mode)
        for d in inputs.dense[:40]:
            lat = make_lattice(d.id, d.input, d.positions)
            want = reference.best_total(
                lat.input, positions(lat, dic, cfg), dic.terms, cfg.eta, mode
            )
            assert abs(decode(lat, dic, cfg).total - want) <= 1e-9, lat.id

    def test_reference_program_matches_brute_force(self):
        # the dynamic program above is itself checked against enumeration
        assert reference.self_test() == 150 * 4 * 2 * 2


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
            recheck = reference.asm_reward(lat.input, p.tokens, dic.terms)
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
        diag = CorpusDiagnostics()
        results = list(decode_corpus(lats, EMPTY, diag=diag))
        assert all(p.tokens == lat.input for lat, p in results)
        assert diag.log10_avg_path_count == 0.0
        assert diag.flip_count == 0

    def test_deterministic(self):
        rng = random.Random(7)
        lats = [random_lattice(rng, lattice_id=str(i)) for i in range(30)]
        dic = UserDictionary({"甲乙"})
        a = list(decode_corpus(lats, dic))
        b = list(decode_corpus(lats, dic))
        assert [p.tokens for _, p in a] == [p.tokens for _, p in b]

    def test_matches_precomputed_oracle(self):
        rng = random.Random(8)
        lats = [random_lattice(rng, lattice_id=str(i)) for i in range(100)]
        dic = random_dictionary(rng)
        oracle = [brute_decode(lat, dic, DecodeConfig())[0] for lat in lats]
        results = list(decode_corpus(lats, dic))
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
        results = list(decode_corpus(lats, dic))
        assert calls == [lat.id for lat in lats]
        alone = [decode(lat, dic) for lat in lats]
        assert [(p.tokens, p.total) for _, p in results] == [(p.tokens, p.total) for p in alone]

    def test_path_count_beyond_float_range(self):
        # 5**450 paths: the average path count no longer fits a float
        lat = long_lattice()
        diag = CorpusDiagnostics()
        results = list(decode_corpus([lat], EMPTY, diag=diag))
        assert [p.tokens for _, p in results] == [lat.input]
        assert diag.log10_avg_path_count == pytest.approx(450 * math.log10(5))
        assert diag.total_paths == 5**450

    def test_yields_before_reading_on(self):
        rng = random.Random(10)
        first = random_lattice(rng, lattice_id="0")

        def stream():
            yield first
            raise RuntimeError("stream broke after record 0")

        records = decode_corpus(stream(), EMPTY)
        lat, path = next(records)
        assert lat is first and path == decode(first, EMPTY)
        with pytest.raises(RuntimeError):
            next(records)

    def test_memory_does_not_grow_with_record_count(self):
        def lattices(rng, count):
            for i in range(count):
                rows = [
                    [(t, rng.uniform(-8.0, -0.01)) for t in rng.sample(VOCAB, 5)]
                    for _ in range(60)
                ]
                yield lat_of("".join(rng.choice(row)[0] for row in rows), rows, str(i))

        def peak(count):
            rng = random.Random(11)
            dic = random_dictionary(rng)
            tracemalloc.start()
            try:
                for _ in decode_corpus(lattices(rng, count), dic):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(20)  # first-call allocations (caches, specializations) stay out of both
        small = peak(20)
        assert peak(200) < 2 * small
