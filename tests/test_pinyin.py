import re
import string
from importlib import resources
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udspell import pinyin
from udspell.errors import PinyinError
from udspell.pinyin import (
    FINALS,
    FUZZY_KEYS,
    INITIALS,
    load_pinyin_table,
    toneless,
)

from conftest import serve_bundled_text


def bundled_rows():
    """The (character, syllables) rows of the bundled pinyin table, in file order."""
    text = resources.files("udspell.data").joinpath("pinyin.tsv").read_text("utf-8")
    return [tuple(ln.split("\t")) for ln in text.splitlines() if ln and not ln.startswith("#")]


def split_body(body):
    """(initial, final) by a longest-first scan of INITIALS, then the empty
    initial; None when no split leaves a known final. INITIALS lists the
    two-letter initials first."""
    return next(
        ((ini, body[len(ini):]) for ini in INITIALS + ("",)
         if body.startswith(ini) and body[len(ini):] in FINALS),
        None,
    )


class TestDecompose:
    """``toneless`` checks a syllable and returns its body."""

    @pytest.mark.parametrize(
        "syllable,expected",
        [
            ("cha1", ("cha", "ca")),
            ("ca1", ("ca", "ca")),
            ("ai4", ("ai", "ai")),
            ("zhuang3", ("zhuang", "zuang")),
            ("er2", ("er", "er")),
            ("yuan4", ("yuan", "yuan")),
            ("nv3", ("nv", "lv")),
            ("lve4", ("lve", "lve")),
            ("le5", ("le", "le")),
        ],
    )
    def test_known_splits(self, syllable, expected):
        """(body, fuzzy key) of each syllable."""
        body = toneless(syllable)
        assert (body, FUZZY_KEYS[body]) == expected

    def test_umlaut_input_normalized(self):
        assert toneless("nü3") == toneless("nv3") == "nv"

    @pytest.mark.parametrize("bad", ["", "cha", "cha0", "cha6", "xyz1", "q1"])
    def test_unparseable_raises(self, bad):
        with pytest.raises(PinyinError):
            toneless(bad)

    def test_case_and_whitespace_normalized(self):
        assert toneless("CHA1 ") == toneless("cha1") == "cha"

    def test_error_names_offending_string(self):
        with pytest.raises(PinyinError, match="xqj1"):
            toneless("xqj1")

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
        """A body is accepted iff the scan splits it, and keys as its
        initial's representative followed by its final."""
        split = split_body(body)
        if split is None:
            with pytest.raises(PinyinError):
                toneless(f"{body}{tone}")
        else:
            assert toneless(f"{body}{tone}") == body
            assert FUZZY_KEYS[body] == reference_rep(split[0]) + split[1]


_SYLLABLE_RE = re.compile(r"^[a-züv]+[1-5]$")


def regex_toneless(syllable):
    """toneless by a regex check and a longest-first scan of the initials: the
    oracle for toneless's table lookup."""
    s = syllable.strip().lower().replace("ü", "v")
    if not _SYLLABLE_RE.match(s):
        raise PinyinError(f"unparseable pinyin syllable {syllable!r}")
    body = s[:-1]
    for n in (2, 1):
        if body[:n] in INITIALS and body[n:] in FINALS:
            return body
    if body in FINALS:
        return body
    raise PinyinError(f"unparseable pinyin syllable {syllable!r}")


def outcome(f, syllable):
    try:
        return f(syllable)
    except PinyinError as e:
        return str(e)


class TestDecomposeOracle:
    def test_every_short_string(self):
        """All strings of up to three letters, with valid and invalid tone digits."""
        bodies = ["".join(t) for n in range(4) for t in product(string.ascii_lowercase, repeat=n)]
        for body in bodies + sorted(ini + fin for ini in INITIALS for fin in FINALS):
            for tone in ("", "0", "1", "5", "6"):
                assert outcome(toneless, body + tone) == outcome(regex_toneless, body + tone)

    @given(
        st.tuples(
            st.sampled_from(["", " ", "\t", "\n"]),
            st.text(alphabet="abceghilnorsuvzüAHÜ", max_size=6),
            st.sampled_from(["", "1", "3", "5", "0", "6", "x", "\n"]),
            st.sampled_from(["", " ", "\n"]),
        ).map("".join)
    )
    @settings(max_examples=500, deadline=None)
    def test_decorated_strings(self, syllable):
        """Upper case, u-umlaut and surrounding whitespace."""
        assert outcome(toneless, syllable) == outcome(regex_toneless, syllable)


def all_valid_syllables():
    out = []
    for ini in ("",) + INITIALS:
        for fin in sorted(FINALS):
            out.append(f"{ini}{fin}1")
    return out


class TestRecompose:
    def test_bijection_over_inventory(self):
        """Each (initial, final) pair spells its own body, and the key table
        holds exactly those bodies, each keyed by the reference rule."""
        pairs = [(ini, fin) for ini in ("",) + INITIALS for fin in sorted(FINALS)]
        assert len(pairs) == len(FUZZY_KEYS) == 888
        for ini, fin in pairs:
            assert FUZZY_KEYS[ini + fin] == reference_rep(ini) + fin


def one_reading_table(a, b):
    """Characters 甲 and 乙 with one reading each."""
    return load_pinyin_table([f"甲\t{a}", f"乙\t{b}"])


def similar(table, a, b):
    """Two characters are similar iff their fuzzy keys intersect."""
    return not set(table[a]).isdisjoint(table[b])


def keys_equal(a, b):
    table = one_reading_table(a, b)
    return table["甲"] == table["乙"]


class TestPhoneticSimilar:
    """Syllables are similar iff their fuzzy keys are equal."""

    def test_fuzzy_initial_pair(self):
        assert keys_equal("cha1", "ca1")

    def test_reflexive(self):
        assert similar(one_reading_table("bao4", "yi4"), "甲", "甲")

    def test_unrelated(self):
        assert not keys_equal("bao4", "yi4")

    def test_tone_ignored(self):
        assert keys_equal("jian1", "jian3")

    def test_rl_not_fuzzy(self):
        assert not keys_equal("ri4", "li4")

    @given(st.sampled_from(all_valid_syllables()), st.sampled_from(all_valid_syllables()))
    @settings(max_examples=300, deadline=None)
    def test_symmetric(self, a, b):
        table = one_reading_table(a, b)
        assert similar(table, "甲", "乙") == similar(table, "乙", "甲")

    def test_reference_equals_key_equality(self):
        """Over every pair of valid bodies, read in different tones, the rule
        as first written holds exactly when the keys are equal, and exactly
        when the keys of one table intersect."""
        bodies = sorted(FUZZY_KEYS)
        chars = [chr(0x4E00 + i) for i in range(len(bodies))]
        first = load_pinyin_table([f"{c}\t{body}1" for c, body in zip(chars, bodies)])
        second = load_pinyin_table([f"{c}\t{body}4" for c, body in zip(chars, bodies)])
        keys_a = [first[c] for c in chars]
        keys_b = [second[c] for c in chars]
        splits = [split_body(body) for body in bodies]
        merged = 0
        for i, (a, sa) in enumerate(zip(bodies, splits)):
            for j, (b, sb) in enumerate(zip(bodies, splits)):
                equal = keys_a[i] == keys_b[j]
                assert reference_similar(sa, sb) == equal, (a, b)
                assert similar(first, chars[i], chars[j]) == equal, (a, b)
                merged += equal and sa[0] != sb[0]
        # fuzzy keys merge distinct tone-less spellings, not only tones
        assert merged


class TestPinyinTable:
    """A table maps each character to the sorted, distinct fuzzy keys of its
    readings."""

    def test_load_and_lookup(self):
        table = load_pinyin_table(["# comment", "插\tcha1", "了\tle5,liao3"])
        assert table == {"插": ("ca",), "了": ("le", "liao")}

    def test_surrounding_whitespace_and_indented_comments(self):
        table = load_pinyin_table(["  插\tcha1 ", "\t# indented comment", "了\tle5,liao3\n"])
        assert table == {"插": ("ca",), "了": ("le", "liao")}

    def test_missing_char_raises(self):
        table = load_pinyin_table(["插\tcha1"])
        assert table.get("擦") is None
        with pytest.raises(KeyError):
            table["擦"]

    def test_bad_line_raises(self):
        with pytest.raises(PinyinError):
            load_pinyin_table(["插插\tcha1"])

    def test_repeated_character_keeps_every_line(self):
        """A character on several lines keeps the keys of all of them, sorted
        and distinct, in its first line's place; tone-only polyphones hold one key."""
        table = load_pinyin_table(["行\txing2", "好\thao3,hao4", "行\thang2,xing4"])
        assert list(table.items()) == [("行", ("fang", "xing")), ("好", ("fao",))]
        with pytest.raises(PinyinError, match="line 2: no readings"):
            load_pinyin_table(["行\txing2", "行\t,"])

    def test_polyphone_similarity_uses_all_readings(self):
        table = load_pinyin_table(["行\txing2,hang2", "航\thang2"])
        assert similar(table, "行", "航")

    def test_bundled_table_splits_validly(self, pinyin_table):
        """Each character holds the keys of its syllables in the file, each
        syllable's body split into a known initial and final and keyed by the
        reference rule."""
        rows = bundled_rows()
        assert len(rows) == len(pinyin_table)
        for char, sylls in rows:
            splits = [split_body(toneless(s)) for s in sylls.split(",")]
            keys = {reference_rep(ini) + fin for ini, fin in splits}
            assert pinyin_table[char] == tuple(sorted(keys)), char

    def test_bundled_table_is_split_at_newlines_only(self, monkeypatch):
        # str.splitlines would also split the comment at U+2028
        serve_bundled_text(monkeypatch, pinyin, "# a\u2028b\n甲\tjia3\n")
        assert pinyin.default_table() == {"甲": ("jia",)}

    def test_distinct_syllables_decoded_once(self, monkeypatch):
        calls = []
        real = pinyin.toneless
        monkeypatch.setattr(pinyin, "toneless", lambda s: calls.append(s) or real(s))
        table = load_pinyin_table(["插\tcha1", "叉\tcha1,cha3", "擦\tca1"])
        assert sorted(calls) == ["ca1", "cha1", "cha3"]
        assert table == {"插": ("ca",), "叉": ("ca",), "擦": ("ca",)}


# The input-method fuzzy pairs, written out apart from the module's own table.
REFERENCE_FUZZY_GROUPS = [
    frozenset(g) for g in ({"z", "zh"}, {"c", "ch"}, {"s", "sh"}, {"l", "n"}, {"f", "h"})
]
_REFERENCE_REP = {i: min(g) for g in REFERENCE_FUZZY_GROUPS for i in g}


def reference_rep(initial):
    return _REFERENCE_REP.get(initial, initial)


def reference_similar(a, b):
    """Similarity of two (initial, final) splits as first written: tone-less
    equality, then equal finals with initials in one fuzzy group."""
    if a[0] + a[1] == b[0] + b[1]:
        return True
    return a[1] == b[1] and reference_rep(a[0]) == reference_rep(b[0])


class TestTableSimilar:
    """Intersecting key sets equal the any-reading-pair rule as first written
    on the split bodies of the bundled table."""

    def test_every_bundled_pair(self, pinyin_table):
        rows = bundled_rows()
        splits = {c: [split_body(toneless(s)) for s in sylls.split(",")] for c, sylls in rows}
        for a, b in product(splits, splits):
            expected = any(reference_similar(x, y) for x in splits[a] for y in splits[b])
            assert similar(pinyin_table, a, b) == expected, (a, b)
