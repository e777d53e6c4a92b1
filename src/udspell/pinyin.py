"""Tone-less pinyin readings and the one phonetic-similarity rule.

A reading is a syllable's tone-less body: "cha1" reads "cha". The tone digit
1..5 (5 = neutral) is checked and dropped, and the ASCII letter "v" stands
for the vowel u-umlaut. A body is an initial (possibly empty) followed by a
final. Every final starts with a vowel and no initial holds one, so a body
splits into (initial, final) one way only. A fuzzy key is the body with its
initial collapsed to its group of input-method fuzzy initials (z/zh, c/ch,
s/sh, l/n, f/h), looked up in ``FUZZY_KEYS``. Syllables are phonetically
similar iff their keys are equal, characters iff their key sets
(``PinyinTable.keys``) intersect: equal keys mean the same final and
fuzzy-equal initials.
"""
from __future__ import annotations

from importlib import resources
from typing import IO, Iterable

from .errors import PinyinError, table_rows

# The 23 Mandarin initials.
INITIALS: tuple[str, ...] = (
    "zh", "ch", "sh",
    "b", "p", "m", "f", "d", "t", "n", "l",
    "g", "k", "h", "j", "q", "x", "r", "z", "c", "s", "y", "w",
)

FINALS: frozenset[str] = frozenset({
    "a", "o", "e", "i", "u", "v",
    "ai", "ei", "ui", "ao", "ou", "iu", "ie", "ue", "ve", "er",
    "an", "en", "in", "un", "vn",
    "ang", "eng", "ing", "ong",
    "ia", "iao", "ian", "iang", "iong",
    "ua", "uo", "uai", "uan", "uang", "uen", "ueng",
})

# Input-method fuzzy pairs; r/l deliberately excluded.
FUZZY_GROUPS: tuple[frozenset[str], ...] = (
    frozenset({"z", "zh"}),
    frozenset({"c", "ch"}),
    frozenset({"s", "sh"}),
    frozenset({"l", "n"}),
    frozenset({"f", "h"}),
)

_FUZZY_REP = {i: min(g) for g in FUZZY_GROUPS for i in g}

# Every valid tone-less body -> its fuzzy key; 24 x 37 = 888 entries.
FUZZY_KEYS: dict[str, str] = {
    ini + fin: _FUZZY_REP.get(ini, ini) + fin for ini in ("", *INITIALS) for fin in FINALS
}


def toneless(syllable: str) -> str:
    """The tone-less body of a tone-digit syllable ("cha1" -> "cha")."""
    s = syllable.strip().lower().replace("ü", "v")
    if s[:-1] not in FUZZY_KEYS or not "1" <= s[-1:] <= "5":
        raise PinyinError(f"unparseable pinyin syllable {syllable!r}")
    return s[:-1]


class PinyinTable:
    """Immutable character-to-readings map: each character's distinct tone-less
    bodies in file order, as ``load_pinyin_table`` or ``toneless`` makes them."""

    def __init__(self, entries: dict[str, tuple[str, ...]]):
        self._entries = dict(entries)

    def __contains__(self, char: str) -> bool:
        return char in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self, char: str, fuzzy: bool = True) -> set[str]:
        """The character's fuzzy keys, or its bodies for ``fuzzy=False``."""
        bodies = self._entries[char]
        return {FUZZY_KEYS[b] for b in bodies} if fuzzy else set(bodies)


def load_pinyin_table(stream: Iterable[str] | IO[str]) -> PinyinTable:
    """Load ``char<TAB>syll1,syll2,...`` lines, stripped whole; ``#`` starts a
    comment. A character on several lines keeps the readings of all of them."""
    entries: dict[str, tuple[str, ...]] = {}
    bodies: dict[str, str] = {}  # each distinct syllable string checked once
    for ln, (char, sylls) in table_rows(map(str.strip, stream), 2, PinyinError, "pinyin entry"):
        if len(char) != 1:
            raise PinyinError(f"line {ln}: {char!r} is not one character")
        try:
            read = [
                bodies[s] if s in bodies else bodies.setdefault(s, toneless(s))
                for s in sylls.split(",")
                if s
            ]
        except PinyinError as e:
            raise PinyinError(f"line {ln}: {e}") from e
        if not read:
            raise PinyinError(f"line {ln}: no readings for {char!r}")
        entries[char] = tuple(dict.fromkeys((*entries.get(char, ()), *read)))
    return PinyinTable(entries)


def default_table() -> PinyinTable:
    """The table bundled with the package (covers the shipped confusion data)."""
    text = resources.files("udspell.data").joinpath("pinyin.tsv").read_text("utf-8")
    return load_pinyin_table(text.split("\n"))
