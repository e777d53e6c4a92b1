"""Pinyin syllable decomposition and the one phonetic-similarity rule.

A syllable such as "cha1" splits into an initial ("ch"), a final ("a") and
a tone digit 1..5 (5 = neutral). The ASCII letter "v" stands for the vowel
u-umlaut. A fuzzy key is the tone-less spelling with the initial collapsed
to its group of input-method fuzzy initials (z/zh, c/ch, s/sh, l/n, f/h).
Syllables are phonetically similar iff their keys are equal, characters iff
a reading of each has the same key. Every final starts with a vowel and no
initial holds one, so a key splits into (initial, final) one way only: equal
keys mean the same final and fuzzy-equal initials. A hand-built "z" + "hang"
keys as "zhang", so it is not similar to "zh" + "ang" (key "zang").
"""
from __future__ import annotations

from dataclasses import dataclass
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

# Every valid tone-less body, split as (initial, final); a longer initial
# overrides a shorter one, so the longest initial wins.
_BODIES: dict[str, tuple[str, str]] = {
    ini + fin: (ini, fin) for ini in sorted(("", *INITIALS), key=len) for fin in FINALS
}
_TONES = {str(t): t for t in range(1, 6)}


@dataclass(frozen=True)
class PinyinSyllable:
    """(initial, final, tone) decomposition of one romanized syllable."""

    integral: str
    initial: str
    final: str
    tone: int

    def fuzzy_key(self, fuzzy: bool = True) -> str:
        """Tone-less form with the initial collapsed to its fuzzy-group representative."""
        ini = _FUZZY_REP.get(self.initial, self.initial) if fuzzy else self.initial
        return ini + self.final


def decompose(integral: str) -> PinyinSyllable:
    """Split a tone-digit syllable into (initial, final, tone).

    The initial is matched longest-first against the closed inventory of 23
    initials; the remainder must be a known final.
    """
    s = integral.strip().lower().replace("ü", "v")
    split, tone = _BODIES.get(s[:-1]), _TONES.get(s[-1:])
    if split is None or tone is None:
        raise PinyinError(f"unparseable pinyin syllable {integral!r}")
    return PinyinSyllable(integral=s, initial=split[0], final=split[1], tone=tone)


class PinyinTable:
    """Immutable character-to-readings map; polyphones keep all readings in file order."""

    def __init__(self, entries: dict[str, tuple[PinyinSyllable, ...]]):
        self._entries = dict(entries)

    def __contains__(self, char: str) -> bool:
        return char in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def readings(self, char: str) -> tuple[PinyinSyllable, ...]:
        try:
            return self._entries[char]
        except KeyError:
            raise PinyinError(f"character {char!r} not in pinyin table") from None

    def similar(self, a: str, b: str) -> bool:
        """True iff a reading of each character has the same fuzzy key."""
        ra, rb = self._entries.get(a, ()), self._entries.get(b, ())
        if len(ra) == 1 and len(rb) == 1:  # the common case, without a generator
            return ra[0].fuzzy_key() == rb[0].fuzzy_key()
        return any(x.fuzzy_key() == y.fuzzy_key() for x in ra for y in rb)


def load_pinyin_table(stream: Iterable[str] | IO[str]) -> PinyinTable:
    """Load ``char<TAB>syll1,syll2,...`` lines, stripped whole; ``#`` starts a comment."""
    entries: dict[str, tuple[PinyinSyllable, ...]] = {}
    decoded: dict[str, PinyinSyllable] = {}  # each distinct syllable string decomposed once
    for ln, (char, sylls) in table_rows(map(str.strip, stream), 2, PinyinError, "pinyin entry"):
        if len(char) != 1:
            raise PinyinError(f"line {ln}: {char!r} is not one character")
        try:
            entries[char] = tuple(
                decoded[s] if s in decoded else decoded.setdefault(s, decompose(s))
                for s in sylls.split(",")
                if s
            )
        except PinyinError as e:
            raise PinyinError(f"line {ln}: {e}") from e
        if not entries[char]:
            raise PinyinError(f"line {ln}: no readings for {char!r}")
    return PinyinTable(entries)


def default_table() -> PinyinTable:
    """The table bundled with the package (covers the shipped confusion data)."""
    text = resources.files("udspell.data").joinpath("pinyin.tsv").read_text("utf-8")
    return load_pinyin_table(text.split("\n"))
