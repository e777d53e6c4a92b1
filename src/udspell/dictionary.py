"""User dictionary storage, multi-pattern matching, and raw-span pinning.

Matching is backed by an Aho-Corasick automaton so the decoder can advance
one character at a time along a hypothesis and learn, at each position,
which dictionary terms just ended there.
"""
from __future__ import annotations

import logging
import random
from collections import Counter, deque
from typing import IO, Iterable, Iterator

from .errors import DictionaryError, diff_runs

logger = logging.getLogger(__name__)

MAX_WORD_LEN = 4  # longest gram of the word list that stands in for a lexicon


class UserDictionary:
    """Immutable term set (each term >= 2 chars) and its Aho-Corasick matcher.

    States are integers; 0 is the root. ``step`` is one lookup: ``table[state]``
    holds every transition along the state's failure chain but the root's,
    which ``root`` holds. ``ends[state]`` holds the lengths of every term
    ending at that state, and ``depth[state]`` is the length of the term
    prefix the state spells: the longest suffix of the text read so far that
    a term occurrence can still extend. Terms have >= 2 chars, so every
    ``table`` entry leads to depth >= 2, and no state of depth <= 1 ends one.
    """

    def __init__(self, terms: Iterable[str]):
        self.terms = frozenset(terms)
        for t in self.terms:
            if len(t) < 2:
                raise DictionaryError(f"dictionary term too short: {t!r}")
        goto: list[dict[str, int]] = [{}]
        self.ends: list[tuple[int, ...]] = [()]
        self.depth: list[int] = [0]
        for term in sorted(self.terms):
            state = 0
            for ch in term:
                nxt = goto[state].get(ch)
                if nxt is None:
                    nxt = len(goto)
                    goto[state][ch] = nxt
                    goto.append({})
                    self.ends.append(())
                    self.depth.append(self.depth[state] + 1)
                state = nxt
            self.ends[state] += (len(term),)
        self.root = goto[0]
        # In BFS order a state's table is its failure link's table updated
        # with its own children; both are set by then, as a link always points
        # to a shallower state. Tables that one side leaves unchanged are shared.
        self.table: list[dict[str, int]] = [{}] + goto[1:]  # final at depth <= 1
        fail = [0] * len(goto)
        queue = deque(self.root.values())
        while queue:
            state = queue.popleft()
            for ch, child in goto[state].items():
                queue.append(child)
                fail[child] = link = self.step(fail[state], ch)
                self.ends[child] += self.ends[link]
                inherited, own = self.table[link], goto[child]
                self.table[child] = {**inherited, **own} if inherited and own else inherited or own

    def __len__(self) -> int:
        return len(self.terms)

    def step(self, state: int, ch: str) -> int:
        """Advance one character."""
        return self.table[state].get(ch) or self.root.get(ch, 0)

    def iter_matches(self, text: str) -> Iterator[tuple[int, int]]:
        """(start, end) of every term occurrence in text, end exclusive."""
        state = 0
        for j, ch in enumerate(text):
            state = self.step(state, ch)
            for ln in self.ends[state]:
                yield (j - ln + 1, j + 1)


def load_dictionary(stream: Iterable[str] | IO[str]) -> UserDictionary:
    """One term per line; ``#`` comments and blank lines ignored.

    Terms shorter than 2 characters are rejected with a warning; an empty
    result is legal (decoding then degrades toward greedy).
    """
    terms = set()
    rejected = 0
    for line in stream:  # one whole term per line, not a tab-separated row
        term = line.strip()
        if not term or term.startswith("#"):
            continue
        if len(term) < 2:
            rejected += 1
            continue
        terms.add(term)
    if rejected:
        logger.warning("rejected %d single-character dictionary terms", rejected)
    if not terms:
        logger.warning("loaded an empty dictionary")
    return UserDictionary(terms)


def rsm_fixed_positions(input: str, dic: UserDictionary) -> set[int]:
    """Every position covered by an occurrence (overlaps included) of a
    dictionary term in the raw input."""
    fixed: set[int] = set()
    for s, e in dic.iter_matches(input):
        fixed.update(range(s, e))
    return fixed


def greedy_segment(text: str, words: set[str]) -> list[str]:
    """Greedy left-to-right longest-match segmentation against a word set."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        match = text[i]
        for ln in range(min(MAX_WORD_LEN, n - i), 1, -1):
            if text[i : i + ln] in words:
                match = text[i : i + ln]
                break
        out.append(match)
        i += len(match)
    return out


def error_phrases(pairs: Iterable[tuple[str, str]]) -> set[str]:
    """Distinct gold-side phrases around the error positions of (source, target) pairs.

    Each contiguous corrected run is extended to the boundaries of the word
    containing it under greedy segmentation of the target; phrases shorter
    than 2 characters are widened by one character where possible. The
    2-4 character grams seen at least twice among the gold sentences stand
    in for a word list.
    """
    pairs = list(pairs)
    counts: Counter[str] = Counter()
    for _, target in pairs:
        for ln in range(2, MAX_WORD_LEN + 1):
            for i in range(len(target) - ln + 1):
                counts[target[i : i + ln]] += 1
    wordlist = {g for g, c in counts.items() if c >= 2}

    phrases: set[str] = set()
    for source, target in pairs:
        if len(source) != len(target):
            raise DictionaryError("dataset pair lengths differ")
        runs = diff_runs(source, target)
        if not runs:
            continue
        # start and end of the word holding each position of the segmented target
        start, end = [], []
        for word in greedy_segment(target, wordlist):
            i = len(start)
            start += [i] * len(word)
            end += [i + len(word)] * len(word)
        for rs, re_ in runs:
            lo, hi = start[rs], end[re_ - 1]
            if hi - lo < 2:
                lo = max(0, lo - 1)
                if hi - lo < 2:
                    hi = min(len(target), hi + 1)
            if hi - lo >= 2:
                phrases.add(target[lo:hi])
    return phrases


def build_ideal_dictionary(
    pairs: Iterable[tuple[str, str]], proportion: float, seed: int = 0
) -> UserDictionary:
    """Sample the given proportion of distinct gold error phrases into a dictionary."""
    if not (0.0 <= proportion <= 1.0):
        raise DictionaryError(f"proportion must be in [0, 1], got {proportion}")
    phrases = sorted(error_phrases(pairs))
    count = round(proportion * len(phrases))
    rng = random.Random(seed)
    return UserDictionary(rng.sample(phrases, count))
