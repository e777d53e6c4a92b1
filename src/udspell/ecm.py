"""Error-consistent corruption: one error type per sentence, injected under
a 15% character budget.

Each sentence draws a single error type (pronunciation 30%, shape 30%,
random 20%, unchanged 20% by default) and all edits in the sentence share
that type. Continuous (2-4 char) replacements come from the fragment
confusion set and occur only under the pronunciation type.

Every edit, of a fragment or of one character, is drawn by ``_draw_other``
from a sorted pool and never equals the original.
"""
from __future__ import annotations

import math
import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Sequence

from .confusion import CJK_RUNS, NGRAM_LENGTHS, CharConfusion, is_chinese_char
from .errors import EcmError

ERROR_TYPES = ("pronunciation", "shape", "random", "unchanged")

_MAX_RETRIES = 8


@dataclass(frozen=True)
class EcmConfig:
    p_pronunciation: float = 0.30
    p_shape: float = 0.30
    p_random: float = 0.20
    p_unchanged: float = 0.20
    max_ratio: float = 0.15
    seed: int = 0

    def __post_init__(self) -> None:
        probs = (self.p_pronunciation, self.p_shape, self.p_random, self.p_unchanged)
        if not all(math.isfinite(p) and p >= 0 for p in probs) or abs(sum(probs) - 1.0) > 1e-9:
            raise EcmError(f"error-type probabilities must be >= 0 and sum to 1, got {probs}")
        if not (0 < self.max_ratio <= 1):
            raise EcmError(f"max_ratio must be in (0, 1], got {self.max_ratio}")

    def sample_type(self, rng: random.Random) -> str:
        x = rng.random()
        for name, p in zip(
            ERROR_TYPES,
            (self.p_pronunciation, self.p_shape, self.p_random, self.p_unchanged),
        ):
            x -= p
            if x < 0:
                return name
        return ERROR_TYPES[-1]


@dataclass(frozen=True)
class Edit:
    pos: int
    orig: str
    repl: str


@dataclass(frozen=True)
class CorruptionRecord:
    source: str  # corrupted sentence
    target: str  # original sentence
    error_type: str
    edits: tuple[Edit, ...] = ()
    degraded: bool = False  # drawn non-unchanged but no edit was possible

    def __post_init__(self) -> None:
        if len(self.source) != len(self.target):
            raise EcmError("source and target must have equal length")


def _draw_other(rng: random.Random, pool: Sequence[str], orig: str) -> str | None:
    """``rng.choice([c for c in pool if c != orig])`` without the copy: the same
    replacement and ``rng`` state, or None and no draw when nothing else is left.
    ``pool`` holds characters or same-length fragments, sorted and free of
    duplicates."""
    k = bisect_left(pool, orig)
    present = k < len(pool) and pool[k] == orig
    if len(pool) == present:
        return None
    i = rng.randrange(len(pool) - present)  # the draw rng.choice makes
    return pool[i + (present and i >= k)]


def _edit_sites(sentence: str) -> list[int]:
    return [i for m in CJK_RUNS.finditer(sentence) for i in range(*m.span())]


def _corrupt(
    sentence: str,
    char_conf: CharConfusion,
    ngram_conf: dict[str, set[str]],
    cfg: EcmConfig,
    rng: random.Random,
    inventory: Sequence[str],
) -> CorruptionRecord:
    """Corrupt one sentence with a single sampled error type.

    The total number of replaced characters never exceeds
    floor(max_ratio * len); sentences where no edit is possible degrade to
    an unchanged record flagged as degraded. ``inventory`` must be
    ``char_conf.inventory()``, which the caller computes once per corpus.
    """
    if not sentence:
        raise EcmError("cannot corrupt an empty sentence")

    error_type = cfg.sample_type(rng)
    if error_type == "unchanged":
        return CorruptionRecord(sentence, sentence, "unchanged")

    budget = math.floor(cfg.max_ratio * len(sentence))
    sites = _edit_sites(sentence)
    if budget == 0 or not sites:
        return CorruptionRecord(sentence, sentence, "unchanged", degraded=True)

    chars = list(sentence)
    used: set[int] = set()
    edits: list[Edit] = []
    spent = 0
    want = rng.randint(1, budget)
    singles = char_conf.phonetic if error_type == "pronunciation" else char_conf.morphological

    attempts = 0
    while spent < want and attempts < _MAX_RETRIES * budget:
        attempts += 1
        pos = rng.choice(sites)
        if pos in used:
            continue
        ln = 1
        if error_type == "pronunciation":
            frag_lens = [
                n
                for n in NGRAM_LENGTHS
                if n <= want - spent
                and pos + n <= len(sentence)
                and ngram_conf.get(sentence[pos : pos + n])
                and all(is_chinese_char(sentence[i]) and i not in used for i in range(pos, pos + n))
            ]
            if frag_lens and rng.random() < 0.5:
                ln = rng.choice(frag_lens)
        orig = sentence[pos : pos + ln]
        if ln > 1:
            pool = sorted(ngram_conf[orig])
        elif error_type == "random":
            pool = inventory
        else:
            pool = sorted(singles.get(orig, ()))
        repl = _draw_other(rng, pool, orig)
        if repl is None:
            continue
        chars[pos : pos + ln] = repl
        used.update(range(pos, pos + ln))
        edits.append(Edit(pos, orig, repl))
        spent += ln

    if not edits:
        return CorruptionRecord(sentence, sentence, "unchanged", degraded=True)
    edits.sort(key=lambda e: e.pos)
    return CorruptionRecord("".join(chars), sentence, error_type, tuple(edits))


def _sentence_rng(seed: int, index: int) -> random.Random:
    # str seeds hash deterministically (sha512) across processes
    return random.Random(f"{seed}:{index}")


def generate_corpus(
    corpus: Iterable[str],
    char_conf: CharConfusion,
    ngram_conf: dict[str, set[str]],
    cfg: EcmConfig,
) -> Iterator[CorruptionRecord]:
    """One corruption record per sentence, reproducible for a fixed seed.

    Each sentence uses an RNG derived from (seed, sentence index), so the
    output is independent of processing order.
    """
    inventory = char_conf.inventory()
    for idx, sentence in enumerate(corpus):
        yield _corrupt(
            sentence, char_conf, ngram_conf, cfg, _sentence_rng(cfg.seed, idx), inventory
        )


def write_records(records: Iterable[CorruptionRecord], fh: IO[str]) -> None:
    """TSV output ``source<TAB>target<TAB>error_type<TAB>edit_spec`` plus a
    trailing commented summary block."""
    type_counts: Counter[str] = Counter()
    edit_count = degraded_count = 0
    for rec in records:
        spec = ";".join(f"{e.pos}:{e.orig}>{e.repl}" for e in rec.edits)
        fh.write(f"{rec.source}\t{rec.target}\t{rec.error_type}\t{spec}\n")
        type_counts[rec.error_type] += 1
        edit_count += len(rec.edits)
        degraded_count += rec.degraded
    fh.write(f"# records={type_counts.total()} edits={edit_count} degraded={degraded_count}\n")
    for name in ERROR_TYPES:
        fh.write(f"# type.{name}={type_counts[name]}\n")
