import random
from collections import Counter
from itertools import groupby

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from udspell.dictionary import (
    UserDictionary,
    build_ideal_dictionary,
    error_phrases,
    greedy_segment,
    load_dictionary,
    rsm_fixed_positions,
)
from udspell.errors import DictionaryError

from oracle import reference

ALPHA = "甲乙丙丁戊"

terms_strategy = st.sets(
    st.text(alphabet=ALPHA, min_size=2, max_size=4), min_size=0, max_size=6
)
text_strategy = st.text(alphabet=ALPHA, min_size=1, max_size=12)


def naive_spans(text, terms):
    found = set()
    for term in terms:
        start = 0
        while True:
            i = text.find(term, start)
            if i < 0:
                break
            found.add((i, i + len(term)))
            start = i + 1
    return found


def failure_walk(terms):
    """``step`` of a textbook goto/fail automaton over ``terms``, its states
    numbered as ``UserDictionary`` numbers them, and the number of states."""
    goto, fail = [{}], [0]
    for term in sorted(terms):
        state = 0
        for ch in term:
            if ch not in goto[state]:
                goto[state][ch] = len(goto)
                goto.append({})
                fail.append(0)
            state = goto[state][ch]

    def step(state, ch):
        while state and ch not in goto[state]:
            state = fail[state]
        return goto[state].get(ch, 0)

    queue = list(goto[0].values())
    for state in queue:  # BFS: a link points to a shallower state
        for ch, child in goto[state].items():
            fail[child] = step(fail[state], ch)
            queue.append(child)
    return step, len(goto)


class TestSegmentation:
    def test_greedy_longest_match(self):
        words = {"审查", "审查案件", "案件"}
        assert greedy_segment("审查案件了", words) == ["审查案件", "了"]

    def test_no_match_falls_back_to_chars(self):
        assert greedy_segment("甲乙", set()) == ["甲", "乙"]


class TestLoadDictionary:
    def test_load_terms(self):
        dic = load_dictionary(["人民检察院", "审查案件"])
        assert len(dic) == 2 and "审查案件" in dic.terms

    def test_empty_file(self):
        dic = load_dictionary([])
        assert len(dic) == 0

    def test_duplicates_collapse(self):
        dic = load_dictionary(["案件", "案件", "案件"])
        assert len(dic) == 1

    def test_short_terms_rejected_with_warning(self, caplog):
        dic = load_dictionary(["一", "案件"])
        assert len(dic) == 1

    def test_comments_and_blanks_ignored(self):
        dic = load_dictionary(["# c", "", "案件"])
        assert len(dic) == 1

    def test_direct_short_term_is_error(self):
        with pytest.raises(DictionaryError):
            UserDictionary({"一"})


class TestRsmSpans:
    """The input positions that raw-span matches pin."""

    def test_single_occurrence(self):
        dic = UserDictionary({"审查案件"})
        assert rsm_fixed_positions("依法审查案件", dic) == {2, 3, 4, 5}

    def test_no_match(self):
        dic = UserDictionary({"审查案件"})
        assert rsm_fixed_positions("人民法院", dic) == set()

    def test_overlapping_terms_both_reported(self):
        dic = UserDictionary({"法审", "审查案"})
        assert rsm_fixed_positions("依法审查案件", dic) == {1, 2, 3, 4}

    def test_empty_input_pins_nothing(self):
        assert rsm_fixed_positions("", UserDictionary({"案件"})) == set()

    @given(text_strategy, terms_strategy)
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_substring_scan(self, text, terms):
        want = {i for s, e in naive_spans(text, terms) for i in range(s, e)}
        assert rsm_fixed_positions(text, UserDictionary(terms)) == want


class TestAutomaton:
    @given(text_strategy, terms_strategy)
    # the link of 甲乙丙丁 is found two hops away: past 乙丙 to 丙
    @example("甲乙丙丁", {"甲乙丙丁", "乙丙", "丙丁"})
    @settings(max_examples=200, deadline=None)
    def test_incremental_equals_whole_string(self, text, terms):
        ac = UserDictionary(terms)
        incremental = []
        state = 0
        for j, ch in enumerate(text):
            state = ac.step(state, ch)
            # the longest suffix of the text read so far that begins some term
            read = text[: j + 1]
            assert ac.depth[state] == max(
                k
                for k in range(j + 2)
                if not k or any(t.startswith(read[j + 1 - k :]) for t in terms)
            )
            for ln in ac.ends[state]:
                incremental.append((j - ln + 1, j + 1))
        assert sorted(incremental) == sorted(ac.iter_matches(text))
        assert set(incremental) == naive_spans(text, terms)

    @given(text_strategy, terms_strategy)
    # 乙丙 has no child: its table holds 丁 only by inheriting from its link 丙
    @example("甲乙丙丁", {"甲乙丙丁", "乙丙", "丙丁"})
    @settings(max_examples=200, deadline=None)
    def test_table_equals_failure_walk(self, text, terms):
        ac = UserDictionary(terms)
        walk, n_states = failure_walk(terms)
        assert len(ac.table) == len(ac.depth) == n_states
        chars = set(text).union(*terms) | {"子"}  # 子 occurs in no term
        for state in range(n_states):
            for ch in chars:
                assert ac.step(state, ch) == walk(state, ch), (state, ch)
            # what decode's short branch relies on
            assert all(ac.depth[s] >= 2 for s in ac.table[state].values())
            if ac.depth[state] <= 1:
                assert ac.ends[state] == ()


class TestAsmReward:
    """Hand-computed rewards for the reference rule the decode oracle uses."""

    def test_flagship_case(self):
        terms = {"人民检察院"}
        inp = "人民监查员依法审查案件"
        path = "人民检察院依法审查案件"
        assert reference.asm_reward(inp, path, terms) == 5

    def test_identity_path_scores_zero(self):
        terms = {"人民检察院"}
        inp = "人民检察院依法审查案件"
        assert reference.asm_reward(inp, inp, terms) == 0

    def test_unaltered_occurrence_contributes_nothing(self):
        terms = {"审查案件"}
        inp = "人民监查员依法审查案件"
        path = "人民检察院依法审查案件"  # term occurs only over unaltered tail
        assert reference.asm_reward(inp, path, terms) == 0

    def test_altered_count_mode(self):
        terms = {"人民检察院"}
        inp = "人民监查员依法审查案件"
        path = "人民检察院依法审查案件"
        assert reference.asm_reward(inp, path, terms, "altered") == 3

    def test_overlaps_not_double_counted(self):
        terms = {"甲乙丙", "乙丙丁"}
        inp = "甲乙乙丁"
        path = "甲乙丙丁"
        # both terms occur, both altered (position 2); union covers 4 positions
        assert reference.asm_reward(inp, path, terms) == 4

    def test_monotone_in_dictionary(self):
        rng = random.Random(0)
        for _ in range(100):
            inp = "".join(rng.choice(ALPHA) for _ in range(8))
            path = "".join(
                c if rng.random() < 0.7 else rng.choice(ALPHA) for c in inp
            )
            terms = {"".join(rng.choice(ALPHA) for _ in range(2)) for _ in range(3)}
            extra = terms | {"".join(rng.choice(ALPHA) for _ in range(3))}
            assert reference.asm_reward(inp, path, extra) >= reference.asm_reward(
                inp, path, terms
            )


class TestIdealDictionary:
    PAIRS = [
        ("人民监查员办事", "人民检察院办事"),
        ("依法审察案件好", "依法审查案件好"),
        ("一年一年又一年", "一年一年又一年"),
    ]

    def test_proportion_zero_is_empty(self):
        dic = build_ideal_dictionary(self.PAIRS, 0.0, seed=1)
        assert len(dic) == 0

    def test_proportion_one_is_all_phrases(self):
        phrases = error_phrases(self.PAIRS)
        dic = build_ideal_dictionary(self.PAIRS, 1.0, seed=1)
        assert dic.terms == frozenset(phrases)
        assert phrases  # the fixture must actually produce phrases

    def test_half_proportion_reproducible(self):
        # ten pairs whose single error character differs, yielding ten phrases
        pairs = [
            (f"甲乙口丙丁", f"甲乙{x}丙丁")
            for x in "戊己庚辛壬癸子丑寅卯"
        ]
        phrases = error_phrases(pairs)
        assert len(phrases) == 10
        a = build_ideal_dictionary(pairs, 0.5, seed=7)
        b = build_ideal_dictionary(pairs, 0.5, seed=7)
        assert len(a) == 5 and a.terms == b.terms

    def test_phrases_contain_the_error(self):
        for phrase in error_phrases(self.PAIRS):
            assert len(phrase) >= 2
            assert any(phrase in target for _, target in self.PAIRS)

    def test_bad_proportion_raises(self):
        with pytest.raises(DictionaryError):
            build_ideal_dictionary(self.PAIRS, 1.5)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.text("甲乙丙", min_size=1, max_size=20), st.sets(st.integers(0, 19))),
            min_size=1,
            max_size=6,
        )
    )
    def test_phrases_match_word_scan(self, drawn):
        pairs = [("".join("丁" if i in flips else c for i, c in enumerate(t)), t) for t, flips in drawn]
        assert error_phrases(pairs) == scan_error_phrases(pairs)


def scan_error_phrases(pairs):
    """``error_phrases`` finding each run's enclosing words by scanning every word."""
    counts = Counter(
        t[i : i + n] for _, t in pairs for n in range(2, 5) for i in range(len(t) - n + 1)
    )
    wordlist = {g for g, c in counts.items() if c >= 2}
    phrases = set()
    for source, target in pairs:
        bounds, i = [], 0
        for word in greedy_segment(target, wordlist):
            bounds.append((i, i + len(word)))
            i += len(word)
        rs = 0
        for differs, group in groupby(a != b for a, b in zip(source, target)):
            re_ = rs + len(list(group))
            if differs:
                lo = min(s for s, e in bounds if e > rs)
                hi = max(e for s, e in bounds if s < re_)
                if hi - lo < 2:
                    lo = max(0, lo - 1)
                    if hi - lo < 2:
                        hi = min(len(target), hi + 1)
                if hi - lo >= 2:
                    phrases.add(target[lo:hi])
            rs = re_
    return phrases
