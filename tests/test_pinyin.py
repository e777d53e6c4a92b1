import re
import string
from importlib import resources
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from udspell import pinyin
from udspell.errors import PinyinError
from udspell.pinyin import (
    FINALS,
    INITIALS,
    PinyinSyllable,
    PinyinTable,
    decompose,
    load_pinyin_table,
)

from conftest import serve_bundled_text


def bundled_chars():
    """The characters of the bundled pinyin table, in file order."""
    text = resources.files("udspell.data").joinpath("pinyin.tsv").read_text("utf-8")
    return [ln.split("\t")[0] for ln in text.splitlines() if ln and not ln.startswith("#")]


class TestDecompose:
    @pytest.mark.parametrize(
        "syllable,expected",
        [
            ("cha1", ("ch", "a", 1)),
            ("ca1", ("c", "a", 1)),
            ("ai4", ("", "ai", 4)),
            ("zhuang3", ("zh", "uang", 3)),
            ("er2", ("", "er", 2)),
            ("yuan4", ("y", "uan", 4)),
            ("nv3", ("n", "v", 3)),
            ("lve4", ("l", "ve", 4)),
            ("le5", ("l", "e", 5)),
        ],
    )
    def test_known_splits(self, syllable, expected):
        syl = decompose(syllable)
        assert (syl.initial, syl.final, syl.tone) == expected

    def test_umlaut_input_normalized(self):
        assert decompose("nü3") == decompose("nv3")

    @pytest.mark.parametrize("bad", ["", "cha", "cha0", "cha6", "xyz1", "q1"])
    def test_unparseable_raises(self, bad):
        with pytest.raises(PinyinError):
            decompose(bad)

    def test_case_and_whitespace_normalized(self):
        assert decompose("CHA1 ") == decompose("cha1")

    def test_error_names_offending_string(self):
        with pytest.raises(PinyinError, match="xqj1"):
            decompose("xqj1")

    @given(
        st.one_of(
            st.text(alphabet="abceghilnorsuvz", min_size=1, max_size=6),
            st.tuples(
                st.sampled_from(("",) + INITIALS),
                st.sampled_from(sorted(FINALS)),
                st.sampled_from(("", "h", "g", "n", "a")),
            ).map("".join),
        ),
        st.integers(1, 5),
    )
    @settings(max_examples=500, deadline=None)
    def test_matches_longest_first_scan(self, body, tone):
        """The split equals a scan of INITIALS in order, then the empty initial.
        INITIALS lists the two-letter initials first, so the scan is longest-first."""
        expected = next(
            (
                (ini, body[len(ini):])
                for ini in INITIALS + ("",)
                if body.startswith(ini) and body[len(ini):] in FINALS
            ),
            None,
        )
        if expected is None:
            with pytest.raises(PinyinError):
                decompose(f"{body}{tone}")
        else:
            syl = decompose(f"{body}{tone}")
            assert (syl.initial, syl.final, syl.tone) == (*expected, tone)


_SYLLABLE_RE = re.compile(r"^[a-züv]+[1-5]$")


def regex_decompose(integral):
    """decompose by a regex check and a longest-first scan of the initials: the
    oracle for decompose's table lookup."""
    s = integral.strip().lower().replace("ü", "v")
    if not _SYLLABLE_RE.match(s):
        raise PinyinError(f"unparseable pinyin syllable {integral!r}")
    body, tone = s[:-1], int(s[-1])
    for n in (2, 1):
        if body[:n] in INITIALS and body[n:] in FINALS:
            return PinyinSyllable(integral=s, initial=body[:n], final=body[n:], tone=tone)
    if body in FINALS:
        return PinyinSyllable(integral=s, initial="", final=body, tone=tone)
    raise PinyinError(f"unparseable pinyin syllable {integral!r}")


def outcome(f, integral):
    try:
        return f(integral)
    except PinyinError as e:
        return str(e)


class TestDecomposeOracle:
    def test_every_short_string(self):
        """All strings of up to three letters, with valid and invalid tone digits."""
        bodies = ["".join(t) for n in range(4) for t in product(string.ascii_lowercase, repeat=n)]
        for body in bodies + sorted(ini + fin for ini in INITIALS for fin in FINALS):
            for tone in ("", "0", "1", "5", "6"):
                assert outcome(decompose, body + tone) == outcome(regex_decompose, body + tone)

    @given(
        st.tuples(
            st.sampled_from(["", " ", "\t", "\n"]),
            st.text(alphabet="abceghilnorsuvzüAHÜ", max_size=6),
            st.sampled_from(["", "1", "3", "5", "0", "6", "x", "\n"]),
            st.sampled_from(["", " ", "\n"]),
        ).map("".join)
    )
    @settings(max_examples=500, deadline=None)
    def test_decorated_strings(self, integral):
        """Upper case, u-umlaut and surrounding whitespace."""
        assert outcome(decompose, integral) == outcome(regex_decompose, integral)


def all_valid_syllables():
    out = []
    for ini in ("",) + INITIALS:
        for fin in sorted(FINALS):
            out.append(f"{ini}{fin}1")
    return out


class TestRecompose:
    def test_bijection_over_inventory(self):
        for s in all_valid_syllables():
            # some letter sequences decompose differently than built
            # (longest initial wins); the parts must still spell the syllable
            syl = decompose(s)
            assert syl.initial + syl.final + str(syl.tone) == syl.integral == s.lower()


def keys_equal(a, b, fuzzy=True):
    return a.fuzzy_key(fuzzy) == b.fuzzy_key(fuzzy)


def one_reading_table(a, b):
    """Characters 甲 and 乙 with one reading each."""
    return PinyinTable({"甲": (decompose(a),), "乙": (decompose(b),)})


class TestPhoneticSimilar:
    """Syllables are similar iff their fuzzy keys are equal."""

    def test_fuzzy_initial_pair(self):
        assert keys_equal(decompose("cha1"), decompose("ca1"))

    def test_reflexive(self):
        assert one_reading_table("bao4", "yi4").similar("甲", "甲")

    def test_unrelated(self):
        assert not keys_equal(decompose("bao4"), decompose("yi4"))

    def test_tone_ignored(self):
        assert keys_equal(decompose("jian1"), decompose("jian3"))

    def test_fuzzy_can_be_disabled(self):
        assert not keys_equal(decompose("cha1"), decompose("ca1"), fuzzy=False)
        assert keys_equal(decompose("jian1"), decompose("jian3"), fuzzy=False)

    def test_rl_not_fuzzy(self):
        assert not keys_equal(decompose("ri4"), decompose("li4"))

    @given(st.sampled_from(all_valid_syllables()), st.sampled_from(all_valid_syllables()))
    @settings(max_examples=300, deadline=None)
    def test_symmetric(self, a, b):
        table = one_reading_table(a, b)
        assert table.similar("甲", "乙") == table.similar("乙", "甲")

    @pytest.mark.parametrize("fuzzy", [True, False])
    def test_reference_equals_key_equality(self, fuzzy):
        """Over every pair of decomposable tone-less bodies, in different tones,
        the rule as first written holds exactly when the keys are equal."""
        bodies = sorted({ini + fin for ini in ("",) + INITIALS for fin in FINALS})
        first = [decompose(body + "1") for body in bodies]
        second = [decompose(body + "4") for body in bodies]
        merged = 0
        for a in first:
            for b in second:
                assert reference_similar(a, b, fuzzy) == keys_equal(a, b, fuzzy), (a, b)
                merged += keys_equal(a, b, fuzzy) and a.initial != b.initial
        # fuzzy keys merge distinct tone-less spellings; exact keys only tones
        assert bool(merged) == fuzzy


class TestPinyinTable:
    def test_load_and_lookup(self):
        table = load_pinyin_table(["# comment", "插\tcha1", "了\tle5,liao3"])
        assert table.readings("插")[0].integral == "cha1"
        assert len(table.readings("了")) == 2
        assert "插" in table and "擦" not in table

    def test_surrounding_whitespace_and_indented_comments(self):
        table = load_pinyin_table(["  插\tcha1 ", "\t# indented comment", "了\tle5,liao3\n"])
        assert len(table) == 2 and len(table.readings("了")) == 2

    def test_missing_char_raises(self):
        table = load_pinyin_table(["插\tcha1"])
        with pytest.raises(PinyinError):
            table.readings("擦")

    def test_bad_line_raises(self):
        with pytest.raises(PinyinError):
            load_pinyin_table(["插插\tcha1"])

    def test_polyphone_similarity_uses_all_readings(self):
        table = load_pinyin_table(["行\txing2,hang2", "航\thang2"])
        assert table.similar("行", "航")

    def test_bundled_table_decomposes_validly(self, pinyin_table):
        chars = bundled_chars()
        assert len(chars) == len(pinyin_table)
        for char in chars:
            for syl in pinyin_table.readings(char):
                assert syl.initial + syl.final + str(syl.tone) == syl.integral
                assert syl.initial in INITIALS or syl.initial == ""
                assert syl.final in FINALS

    def test_bundled_table_is_split_at_newlines_only(self, monkeypatch):
        # str.splitlines would also split the comment at U+2028
        serve_bundled_text(monkeypatch, pinyin, "# a\u2028b\n甲\tjia3\n")
        table = pinyin.default_table()
        assert len(table) == 1 and table.readings("甲")[0].integral == "jia3"

    def test_distinct_syllables_decoded_once(self):
        table = load_pinyin_table(["插\tcha1", "叉\tcha1,cha3", "擦\tca1"])
        assert table.readings("插")[0] is table.readings("叉")[0]
        assert table.readings("叉")[1] == decompose("cha3")


# The input-method fuzzy pairs, written out apart from the module's own table.
REFERENCE_FUZZY_GROUPS = [
    frozenset(g) for g in ({"z", "zh"}, {"c", "ch"}, {"s", "sh"}, {"l", "n"}, {"f", "h"})
]
_REFERENCE_REP = {i: min(g) for g in REFERENCE_FUZZY_GROUPS for i in g}


def reference_rep(initial):
    return _REFERENCE_REP.get(initial, initial)


def reference_key(syl):
    return reference_rep(syl.initial) + syl.final


def reference_similar(a, b, fuzzy):
    """Syllable similarity as first written: tone-less equality, then equal
    finals with initials in one fuzzy group."""
    if a.initial + a.final == b.initial + b.final:
        return True
    return fuzzy and a.final == b.final and reference_rep(a.initial) == reference_rep(b.initial)


def any_pair_similar(ra, rb):
    return any(reference_similar(x, y, True) for x in ra for y in rb)


def shared_key(ra, rb):
    return bool({reference_key(x) for x in ra} & {reference_key(y) for y in rb})


class TestTableSimilar:
    """``PinyinTable.similar`` equals the any-reading-pair rule as first written
    on decomposed readings, and a shared reference key on any readings."""

    def test_every_bundled_pair(self, pinyin_table):
        chars = bundled_chars()
        for a, b in product(chars, chars):
            expected = any_pair_similar(pinyin_table.readings(a), pinyin_table.readings(b))
            assert pinyin_table.similar(a, b) == expected, (a, b)

    def test_missing_char_is_not_similar(self):
        table = load_pinyin_table(["插\tcha1"])
        assert not table.similar("插", "擦")
        assert not table.similar("擦", "擦")

    # hand-built syllables may split one tone-less spelling two ways
    # ("z" + "hang" against "zh" + "ang"), which decompose never does; they
    # key by their own parts
    hand_built = st.builds(
        PinyinSyllable,
        integral=st.just("x1"),
        initial=st.sampled_from(("", "z", "zh", "c", "ch", "l", "n", "f", "h", "r", "b")),
        final=st.sampled_from(("ang", "hang", "an", "han", "a", "ha", "i", "hi", "ong")),
        tone=st.integers(1, 5),
    )

    @given(
        st.lists(hand_built, min_size=1, max_size=3),
        st.lists(hand_built, min_size=1, max_size=3),
    )
    @example([PinyinSyllable("x1", "z", "hang", 1)], [PinyinSyllable("x2", "zh", "ang", 2)])
    @example([PinyinSyllable("x1", "c", "ha", 1)], [PinyinSyllable("x2", "ch", "a", 2)])
    @example([PinyinSyllable("x1", "z", "hang", 1)], [PinyinSyllable("x2", "z", "ang", 2)])
    @settings(max_examples=500, deadline=None)
    def test_hand_built_readings(self, ra, rb):
        table = PinyinTable({"甲": tuple(ra), "乙": tuple(rb)})
        assert table.similar("甲", "乙") == shared_key(ra, rb)
        assert table.similar("乙", "甲") == shared_key(rb, ra)

    @pytest.mark.parametrize(
        "ra, rb, expected",
        [
            # "z+hang" keys as "zhang", "zh+ang" and "z+ang" as "zang",
            # "c+ha" as "cha" and "ch+a" as "ca"
            ("z+hang", "zh+ang", False),
            ("c+ha", "ch+a", False),
            ("z+hang", "z+ang", False),
            ("zh+ang", "z+ang", True),
            ("z+hang,z+ang", "zh+ang", True),
        ],
    )
    def test_hand_built_examples(self, ra, rb, expected):
        """Readings given as initial+final, comma-separated."""

        def readings(spec):
            return tuple(PinyinSyllable("x1", *r.split("+"), 1) for r in spec.split(","))

        table = PinyinTable({"甲": readings(ra), "乙": readings(rb)})
        assert table.similar("甲", "乙") == table.similar("乙", "甲") == expected
