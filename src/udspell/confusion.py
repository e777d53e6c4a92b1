"""Confusion sets: single-character phonetic/morphological maps and the
fragment-level (2-4 char) confusion set built from a corpus.

The fragment set is built in one pass over the frequent 2/3/4-grams of the
corpus: grams that share a fuzzy pinyin key tuple are paired. It is a plain
dict, fragment -> same-length candidates, symmetric.
"""
from __future__ import annotations

import logging
import re
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from itertools import combinations, islice, product
from typing import IO, Iterable

from .errors import ConfusionError, table_rows

logger = logging.getLogger(__name__)

NGRAM_LENGTHS = (2, 3, 4)
MAX_FRAGMENT_KEYS = 16  # reading combinations kept per fragment

# What counts as a Chinese character, for this module and for ECM's edit sites.
_CJK_RANGE = ("一", "鿿")
CJK_RUNS = re.compile(f"[{_CJK_RANGE[0]}-{_CJK_RANGE[1]}]+")


def is_chinese_char(c: str) -> bool:
    return _CJK_RANGE[0] <= c <= _CJK_RANGE[1]


def chinese_runs(sentence: str) -> list[str]:
    """Maximal runs of consecutive Chinese characters in a sentence."""
    return CJK_RUNS.findall(sentence)


@dataclass
class CharConfusion:
    """Per-character phonetic and morphological candidate sets."""

    phonetic: dict[str, set[str]] = field(default_factory=dict)
    morphological: dict[str, set[str]] = field(default_factory=dict)

    def inventory(self) -> list[str]:
        """Sorted set of every character mentioned anywhere in the maps."""
        chars: set[str] = set()
        for m in (self.phonetic, self.morphological):
            for k, v in m.items():
                chars.add(k)
                chars.update(v)
        return sorted(chars)


def load_char_confusion(stream: Iterable[str] | IO[str]) -> CharConfusion:
    """Load ``char<TAB>P|M<TAB>cand1,cand2,...`` lines.

    The table is kept as given, except that self-candidates are dropped with
    a warning.
    """
    conf = CharConfusion()
    dropped_self = 0
    for ln, (char, tag, cands_s) in table_rows(stream, 3, ConfusionError, "confusion entry"):
        if len(char) != 1:
            raise ConfusionError(f"line {ln}: confused character {char!r} is not one character")
        if tag not in ("P", "M"):
            raise ConfusionError(f"line {ln}: unknown confusion type tag {tag!r}")
        target = conf.phonetic if tag == "P" else conf.morphological
        cands = set()
        for c in cands_s.split(","):
            c = c.strip()
            if len(c) != 1:
                if not c:
                    continue
                raise ConfusionError(f"line {ln}: candidate {c!r} is not one character")
            if c == char:
                dropped_self += 1
                continue
            cands.add(c)
        if cands:
            target.setdefault(char, set()).update(cands)
    if dropped_self:
        logger.warning("dropped %d self-candidates from confusion input", dropped_self)
    return conf


def default_char_confusion() -> CharConfusion:
    """The small confusion set bundled with the package."""
    text = resources.files("udspell.data").joinpath("char_confusion.tsv").read_text("utf-8")
    return load_char_confusion(text.split("\n"))


def save_ngram_confusion(conf: dict[str, set[str]], fh: IO[str]) -> None:
    for frag in sorted(conf):
        fh.write(f"{frag}\t{','.join(sorted(conf[frag]))}\n")


def load_ngram_confusion(stream: Iterable[str] | IO[str]) -> dict[str, set[str]]:
    conf: dict[str, set[str]] = {}
    for ln, (frag, cands) in table_rows(stream, 2, ConfusionError, "n-gram confusion entry"):
        for c in cands.split(","):
            if c and c != frag:
                if len(c) != len(frag):
                    raise ConfusionError(f"line {ln}: length mismatch {frag!r}/{c!r}")
                conf.setdefault(frag, set()).add(c)
    return conf


def _fragment_keys(frag: str, pinyin: dict[str, tuple[str, ...]]) -> list[tuple[str, ...]]:
    """Fuzzy pinyin key tuples for a fragment.

    Polyphones contribute every reading combination, capped at
    ``MAX_FRAGMENT_KEYS``. Returns [] when any character is missing from the
    table.
    """
    per_char = [pinyin.get(c) for c in frag]
    if None in per_char:
        return []
    return list(islice(product(*per_char), MAX_FRAGMENT_KEYS))


def build_ngram_confusion(
    corpus: Iterable[str],
    pinyin: dict[str, tuple[str, ...]],
    min_count: int = 5,
) -> dict[str, set[str]]:
    """Build the fragment confusion set, fragment -> same-length candidates,
    from a sentence corpus.

    The 2/3/4-grams (counted in C, one ``Counter.update`` per run and length)
    occurring at least ``min_count`` times are paired when they share a fuzzy
    pinyin key tuple, which makes every pair the same length and its characters
    phonetically similar position by position. All pairs are inserted in both
    directions.
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
                gram_counts.update([run[i : i + ln] for i in range(len(run) - ln + 1)])

    buckets: dict[tuple[str, ...], list[str]] = {}
    skipped = 0
    for gram in sorted(g for g, c in gram_counts.items() if c >= min_count):
        keys = _fragment_keys(gram, pinyin)
        if not keys:
            skipped += 1
        for key in keys:
            buckets.setdefault(key, []).append(gram)
    conf: dict[str, set[str]] = {}
    for members in buckets.values():
        for a, b in combinations(members, 2):  # distinct grams of one length
            conf.setdefault(a, set()).add(b)
            conf.setdefault(b, set()).add(a)

    if skipped:
        logger.warning(
            "skipped %d fragments containing characters missing from the pinyin table",
            skipped,
        )
    return conf
