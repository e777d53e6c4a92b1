"""Character n-gram noisy-channel scorer emitting top-k lattices.

This is plumbing so the decode/evaluate pipeline runs end to end without a
neural speller: a smoothed character language model combined with a simple
keep-or-confuse channel. It makes no attempt to match neural accuracy.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import IO, Iterable

from .confusion import CharConfusion
from .errors import ScorerError
from .lattice import Lattice, make_lattice

_BOS = "\x02"


@dataclass
class NgramModel:
    """Add-alpha smoothed char model: P(c | previous ``order`` chars). ``totals``
    holds each context's summed count, derived from ``counts``."""

    order: int = 2
    alpha: float = 0.1
    counts: dict[str, Counter] = field(default_factory=dict)
    vocab: tuple[str, ...] = ()
    totals: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.totals = {ctx: sum(c.values()) for ctx, c in self.counts.items()}

    def logprob(self, char: str, context: str) -> float:
        return self.logprobs((_BOS * self.order + context)[-self.order :], (char,))[0]

    def logprobs(self, ctx: str, chars: Iterable[str]) -> list[float]:
        """Log-probabilities of ``chars`` after the exactly ``order``-char ``ctx``."""
        counter = self.counts.get(ctx) or {}
        denom = self.totals.get(ctx, 0) + self.alpha * max(1, len(self.vocab))
        return [math.log((counter.get(c, 0) + self.alpha) / denom) for c in chars]


def train(corpus: Iterable[str], order: int = 2, alpha: float = 0.1) -> NgramModel:
    """Count-based training; deterministic for a fixed corpus."""
    if order < 1:
        raise ScorerError(f"order must be >= 1, got {order}")
    if alpha <= 0:
        raise ScorerError(f"alpha must be > 0, got {alpha}")
    counts: dict[str, Counter] = {}
    vocab: set[str] = set()
    n_sentences = 0
    for sentence in corpus:
        n_sentences += 1
        padded = _BOS * order + sentence
        for i in range(order, len(padded)):
            ctx = padded[i - order : i]
            counts.setdefault(ctx, Counter())[padded[i]] += 1
            vocab.add(padded[i])
    if n_sentences == 0 or not vocab:
        raise ScorerError("cannot train on an empty corpus")
    return NgramModel(order=order, alpha=alpha, counts=counts, vocab=tuple(sorted(vocab)))


def save_model(model: NgramModel, fh: IO[str]) -> None:
    """Counts-TSV serialization; byte-stable for identical models."""
    fh.write(f"#udspell-ngram\t1\t{model.order}\t{model.alpha!r}\n")
    fh.write("#vocab\t" + "".join(model.vocab) + "\n")
    for ctx in sorted(model.counts):
        for char, c in sorted(model.counts[ctx].items()):
            fh.write(f"{ctx}\t{char}\t{c}\n")


def load_model(stream: Iterable[str] | IO[str]) -> NgramModel:
    lines = iter(stream)
    try:
        header = next(lines).rstrip("\n").split("\t")
        if header[0] != "#udspell-ngram" or header[1] != "1":
            raise ScorerError("not a recognized scorer model file")
        order, alpha = int(header[2]), float(header[3])
        vocab_line = next(lines).rstrip("\n").split("\t")
        if vocab_line[0] != "#vocab":
            raise ScorerError("missing vocab line in model file")
        vocab = tuple(vocab_line[1]) if len(vocab_line) > 1 else ()
    except (StopIteration, IndexError, ValueError) as e:
        raise ScorerError(f"malformed model header: {e}") from e
    counts: dict[str, Counter] = {}
    for ln, line in enumerate(lines, 3):
        line = line.rstrip("\n")
        if not line:
            continue
        try:
            ctx, char, count = line.split("\t")
            count = int(count)
        except ValueError:
            raise ScorerError(f"line {ln}: malformed count entry {line!r}") from None
        counts.setdefault(ctx, Counter())[char] = count
    return NgramModel(order=order, alpha=alpha, counts=counts, vocab=vocab)


@dataclass
class ChannelModel:
    """Keep-or-confuse channel over the observed character's confusion set,
    read once per character and kept with its candidates' log-probabilities."""

    confusion: CharConfusion
    p_keep: float = 0.97
    _entries: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (0 < self.p_keep <= 1):
            raise ScorerError(f"p_keep must be in (0, 1], got {self.p_keep}")

    def entry(self, observed: str) -> tuple[tuple[str, ...], tuple[float, ...]]:
        """The observed character, then its confusion candidates in code-point
        order, with log P(observed | intended) for each."""
        if observed not in self._entries:
            confs = sorted(self.confusion.all_candidates(observed))
            tokens = (observed, *(c for c in confs if c != observed))
            swap = (1.0 - self.p_keep) / len(confs) if confs else 0.0
            keep_lp = math.log(self.p_keep if confs else 1.0)
            swap_lp = math.log(swap) if swap > 0 else -math.inf
            self._entries[observed] = (tokens, (keep_lp,) + (swap_lp,) * (len(tokens) - 1))
        return self._entries[observed]

    def logprob(self, observed: str, intended: str) -> float:
        tokens, logps = self.entry(observed)
        if intended not in tokens:
            raise ScorerError(f"{intended!r} is not a channel candidate for {observed!r}")
        return logps[tokens.index(intended)]


def _logsumexp(xs: list[float]) -> float:
    m = max(xs)
    if m == -math.inf:
        return m
    return m + math.log(sum(math.exp(x - m) for x in xs))


def score_sentence(
    sentence: str, lm: NgramModel, ch: ChannelModel, k: int = 5, id: str = ""
) -> Lattice:
    """Top-k lattice for one sentence under the noisy-channel posterior.

    Per position the candidate set is the observed character plus its
    confusion candidates; scores are renormalized over that set so every
    emitted log-probability is <= 0.
    """
    if k < 1:
        raise ScorerError(f"k must be >= 1, got {k}")
    padded = _BOS * lm.order + sentence
    positions = []
    for j, obs in enumerate(sentence):
        cands, channel = ch.entry(obs)
        scores = [a + b for a, b in zip(lm.logprobs(padded[j : j + lm.order], cands), channel)]
        norm = _logsumexp(scores)
        # zero-probability candidates (p_keep == 1) cannot appear in a lattice
        scored = [(t, min(s - norm, 0.0)) for t, s in zip(cands, scores) if s > -math.inf]
        scored.sort(key=lambda p: (-p[1], p[0]))
        positions.append(scored[:k])
    return make_lattice(id or sentence, sentence, positions)


def score_corpus(
    sentences: Iterable[str], lm: NgramModel, ch: ChannelModel, k: int = 5
) -> Iterable[Lattice]:
    """Score every non-blank sentence; its id is its 0-based index in ``sentences``."""
    for idx, s in enumerate(sentences):
        if s.strip():
            yield score_sentence(s, lm, ch, k=k, id=str(idx))
