"""Confusion sets: single-character phonetic/morphological maps and the
fragment-level (2-4 char) confusion set built from a corpus.

The fragment set is assembled in three passes: harvest frequent 2/3/4-grams,
pair grams whose characters are position-wise phonetic-confusable, then
segment the corpus into phrases and pair phrases through a corpus-derived
pinyin-to-characters inverse map. Entries are inserted symmetrically.
"""
from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from itertools import product
from typing import IO, Iterable

from .errors import ConfusionError
from .pinyin import PinyinTable

logger = logging.getLogger(__name__)

NGRAM_LENGTHS = (2, 3, 4)

_CJK_RANGE = ("一", "鿿")


def is_chinese_char(c: str) -> bool:
    return _CJK_RANGE[0] <= c <= _CJK_RANGE[1]


def chinese_runs(sentence: str) -> list[str]:
    """Maximal runs of consecutive Chinese characters in a sentence."""
    runs, cur = [], []
    for c in sentence:
        if is_chinese_char(c):
            cur.append(c)
        elif cur:
            runs.append("".join(cur))
            cur = []
    if cur:
        runs.append("".join(cur))
    return runs


@dataclass
class CharConfusion:
    """Per-character phonetic and morphological candidate sets."""

    phonetic: dict[str, set[str]] = field(default_factory=dict)
    morphological: dict[str, set[str]] = field(default_factory=dict)

    def phonetic_candidates(self, char: str) -> set[str]:
        return self.phonetic.get(char, set())

    def morphological_candidates(self, char: str) -> set[str]:
        return self.morphological.get(char, set())

    def all_candidates(self, char: str) -> set[str]:
        return self.phonetic_candidates(char) | self.morphological_candidates(char)

    def inventory(self) -> list[str]:
        """Sorted set of every character mentioned anywhere in the maps."""
        chars: set[str] = set()
        for m in (self.phonetic, self.morphological):
            for k, v in m.items():
                chars.add(k)
                chars.update(v)
        return sorted(chars)


def load_char_confusion(
    stream: Iterable[str] | IO[str],
    pinyin_table: PinyinTable | None = None,
    fuzzy: bool = True,
) -> CharConfusion:
    """Load ``char<TAB>P|M<TAB>cand1,cand2,...`` lines.

    Self-candidates are dropped with a warning. When a pinyin table is
    given, phonetic candidates that fail the similarity predicate on every
    reading pair are dropped as well.
    """
    conf = CharConfusion()
    dropped_self = 0
    dropped_dissimilar = 0
    for ln, line in enumerate(stream, 1):
        line = line.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3 or len(parts[0]) != 1:
            raise ConfusionError(f"line {ln}: bad confusion entry {line!r}")
        char, tag, cands_s = parts
        if tag not in ("P", "M"):
            raise ConfusionError(f"line {ln}: unknown confusion type tag {tag!r}")
        target = conf.phonetic if tag == "P" else conf.morphological
        cands = set()
        for c in cands_s.split(","):
            c = c.strip()
            if not c:
                continue
            if c == char:
                dropped_self += 1
                continue
            if (
                tag == "P"
                and pinyin_table is not None
                and char in pinyin_table
                and c in pinyin_table
                and not pinyin_table.similar(char, c, fuzzy=fuzzy)
            ):
                dropped_dissimilar += 1
                continue
            cands.add(c)
        if cands:
            target.setdefault(char, set()).update(cands)
    if dropped_self:
        logger.warning("dropped %d self-candidates from confusion input", dropped_self)
    if dropped_dissimilar:
        logger.warning(
            "dropped %d phonetically dissimilar candidates from confusion input",
            dropped_dissimilar,
        )
    return conf


def default_char_confusion(pinyin_table: PinyinTable | None = None) -> CharConfusion:
    """The small confusion set bundled with the package."""
    text = resources.files("udspell.data").joinpath("char_confusion.tsv").read_text("utf-8")
    return load_char_confusion(text.splitlines(), pinyin_table=pinyin_table)


@dataclass
class NgramConfusion:
    """Fragment (2-4 chars) to same-length candidate fragments."""

    entries: dict[str, set[str]] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.entries)

    def add_pair(self, a: str, b: str) -> None:
        if a == b or len(a) != len(b):
            raise ConfusionError(f"bad confusion pair {a!r}/{b!r}")
        self.entries.setdefault(a, set()).add(b)
        self.entries.setdefault(b, set()).add(a)


def save_ngram_confusion(conf: NgramConfusion, fh: IO[str]) -> None:
    for frag in sorted(conf.entries):
        fh.write(f"{frag}\t{','.join(sorted(conf.entries[frag]))}\n")


def load_ngram_confusion(stream: Iterable[str] | IO[str]) -> NgramConfusion:
    conf = NgramConfusion()
    for ln, line in enumerate(stream, 1):
        line = line.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ConfusionError(f"line {ln}: bad n-gram confusion entry {line!r}")
        frag, cands = parts
        for c in cands.split(","):
            if c and c != frag:
                if len(c) != len(frag):
                    raise ConfusionError(f"line {ln}: length mismatch {frag!r}/{c!r}")
                conf.entries.setdefault(frag, set()).add(c)
    return conf


def greedy_segment(text: str, words: set[str], max_len: int = 4) -> list[str]:
    """Greedy left-to-right longest-match segmentation against a word set."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        match = text[i]
        for ln in range(min(max_len, n - i), 1, -1):
            if text[i : i + ln] in words:
                match = text[i : i + ln]
                break
        out.append(match)
        i += len(match)
    return out


def _fragment_keys(
    frag: str, pinyin: PinyinTable, fuzzy: bool, max_keys: int = 16
) -> list[tuple[str, ...]]:
    """Tone-less (optionally fuzzy) pinyin key tuples for a fragment.

    Polyphones contribute every reading combination, capped at ``max_keys``.
    Returns [] when any character is missing from the table.
    """
    per_char = []
    for c in frag:
        if c not in pinyin:
            return []
        per_char.append(sorted({r.fuzzy_key(fuzzy) for r in pinyin.readings(c)}))
    keys = []
    for combo in product(*per_char):
        keys.append(tuple(combo))
        if len(keys) >= max_keys:
            break
    return keys


def _chars_confusable(
    a: str, b: str, char_conf: CharConfusion, pinyin: PinyinTable, fuzzy: bool
) -> bool:
    if a == b:
        return True
    if b in char_conf.phonetic_candidates(a) or a in char_conf.phonetic_candidates(b):
        return True
    return pinyin.similar(a, b, fuzzy=fuzzy)


def build_ngram_confusion(
    corpus: Iterable[str],
    char_conf: CharConfusion,
    pinyin: PinyinTable,
    min_count: int = 5,
    fuzzy: bool = True,
) -> NgramConfusion:
    """Build the fragment confusion set from a sentence corpus.

    Pass 1 harvests 2/3/4-grams occurring at least ``min_count`` times.
    Pass 2 pairs same-length grams that are position-wise phonetic-confusable.
    Pass 3 segments the corpus into phrases with the harvested grams as the
    word list, and pairs medium/high-frequency phrases through the corpus
    pinyin inverse map. All pairs are inserted in both directions.
    """
    if min_count < 1:
        raise ConfusionError(f"min_count must be >= 1, got {min_count}")
    sentences = list(corpus)
    if not sentences:
        raise ConfusionError("cannot build n-gram confusion from an empty corpus")

    gram_counts: Counter[str] = Counter()
    for sent in sentences:
        for run in chinese_runs(sent):
            for ln in NGRAM_LENGTHS:
                for i in range(len(run) - ln + 1):
                    gram_counts[run[i : i + ln]] += 1
    grams = {g for g, c in gram_counts.items() if c >= min_count}

    conf = NgramConfusion()
    skipped_chars = 0

    def pair_bucketed(frags: Iterable[str]) -> None:
        nonlocal skipped_chars
        buckets: dict[tuple[str, ...], list[str]] = {}
        for frag in sorted(frags):
            keys = _fragment_keys(frag, pinyin, fuzzy)
            if not keys:
                skipped_chars += 1
                continue
            for key in keys:
                buckets.setdefault(key, []).append(frag)
        for members in buckets.values():
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    if a != b and all(
                        _chars_confusable(x, y, char_conf, pinyin, fuzzy)
                        for x, y in zip(a, b)
                    ):
                        conf.add_pair(a, b)

    # Pass 2: frequent grams with position-wise confusable characters.
    pair_bucketed(grams)

    # Pass 3: phrases from greedy segmentation, paired via the pinyin inverse map.
    phrase_counts: Counter[str] = Counter()
    for sent in sentences:
        for run in chinese_runs(sent):
            for word in greedy_segment(run, grams):
                if len(word) in NGRAM_LENGTHS:
                    phrase_counts[word] += 1
    phrases = {p for p, c in phrase_counts.items() if c >= min_count}
    pair_bucketed(phrases)

    if skipped_chars:
        logger.warning(
            "skipped %d fragments containing characters missing from the pinyin table",
            skipped_chars,
        )
    return conf
