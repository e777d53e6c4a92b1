"""Character n-gram noisy-channel scorer emitting top-k lattices.

This is plumbing so the decode/evaluate pipeline runs end to end without a
neural speller: a smoothed character language model combined with a simple
keep-or-confuse channel. It makes no attempt to match neural accuracy.
"""
from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import IO, Iterable

from .confusion import CharConfusion
from .errors import ScorerError
from .lattice import Lattice

_BOS = "\x02"


@dataclass
class NgramModel:
    """Add-alpha smoothed char model: P(c | previous ``order`` chars), as
    score_sentence computes it. ``totals`` holds each context's summed count,
    derived from ``counts``; ScorerError if an unseen character's P underflows."""

    order: int = 2
    alpha: float = 0.1
    counts: dict[str, Counter] = field(default_factory=dict)
    vocab: tuple[str, ...] = ()
    totals: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.totals = {ctx: sum(c.values()) for ctx, c in self.counts.items()}
        top = max(self.totals.values(), default=0)
        if self.alpha / (top + self.alpha * max(1, len(self.vocab))) == 0.0:
            raise ScorerError(f"alpha {self.alpha!r} underflows beside a context count of {top}")


def _check_params(order: int, alpha: float) -> None:
    if order < 1:
        raise ScorerError(f"order must be >= 1, got {order}")
    if not (math.isfinite(alpha) and alpha > 0):
        raise ScorerError(f"alpha must be finite and > 0, got {alpha}")


def train(corpus: Iterable[str], order: int = 2, alpha: float = 0.1) -> NgramModel:
    """Count-based training; deterministic for a fixed corpus."""
    _check_params(order, alpha)
    counts: defaultdict[str, Counter] = defaultdict(Counter)
    vocab: set[str] = set()
    n_sentences = 0
    for sentence in corpus:
        n_sentences += 1
        padded = _BOS * order + sentence
        for i in range(order, len(padded)):
            counts[padded[i - order : i]][padded[i]] += 1
        vocab.update(sentence)
    if n_sentences == 0 or not vocab:
        raise ScorerError("cannot train on an empty corpus")
    return NgramModel(order=order, alpha=alpha, counts=dict(counts), vocab=tuple(sorted(vocab)))


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
        vocab_line = next(lines).rstrip("\n")
    except (StopIteration, IndexError, ValueError) as e:
        raise ScorerError(f"malformed model header: {e}") from e
    _check_params(order, alpha)
    if not vocab_line.startswith("#vocab\t"):
        raise ScorerError("missing vocab line in model file")
    vocab = tuple(vocab_line[7:])  # the vocabulary may hold a tab
    counts: dict[str, Counter] = {}
    ctx = None
    for ln, line in enumerate(lines, 3):  # after a header; a context may begin with "#"
        line = line.rstrip("\n")
        if not line:
            continue
        # read by position: the context and the character may themselves be tabs
        try:
            count = int(line[order + 3 :])
            if line[order] != "\t" or line[order + 2] != "\t" or count < 0:
                raise ValueError
        except (IndexError, ValueError):
            raise ScorerError(f"line {ln}: malformed count entry {line!r}") from None
        if line[:order] != ctx:  # save_model writes each context's lines together
            ctx = line[:order]
            counter = counts.setdefault(ctx, Counter())
        counter[line[order + 1]] = count
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
        """The observed character, then its other confusion candidates in
        code-point order, with log P(observed | intended) for each; a
        self-candidate is ignored. ScorerError if a candidate is not one
        character."""
        if observed not in self._entries:
            ph, mo = self.confusion.phonetic, self.confusion.morphological
            confs = sorted((ph.get(observed, set()) | mo.get(observed, set())) - {observed})
            for c in confs:
                if len(c) != 1:
                    raise ScorerError(f"{observed!r}: confusion candidate {c!r} is not one character")
            tokens = (observed, *confs)
            swap = (1.0 - self.p_keep) / len(confs) if confs else 0.0
            keep_lp = math.log(self.p_keep if confs else 1.0)
            swap_lp = math.log(swap) if swap > 0 else -math.inf
            self._entries[observed] = (tokens, (keep_lp,) + (swap_lp,) * (len(tokens) - 1))
        return self._entries[observed]


def score_sentence(
    sentence: str, lm: NgramModel, ch: ChannelModel, k: int = 5, id: str = ""
) -> Lattice:
    """Top-k lattice for one sentence under the noisy-channel posterior.

    Per position the candidate set is the observed character plus its
    confusion candidates, each scored log P_lm + log P_channel with the add-alpha
    P_lm(c | ctx) = (count(ctx, c) + alpha) / (total(ctx) + alpha * |vocab|).
    Scores are renormalized over that set, so every emitted logp is a float
    <= 0: the log-sum-exp is at least every score. Positions are built once,
    in canonical order, from single-character tokens that ``ChannelModel.entry``
    checks, so the lattice needs no pass through ``make_lattice``.
    """
    if k < 1:
        raise ScorerError(f"k must be >= 1, got {k}")
    order, alpha, counts, totals = lm.order, lm.alpha, lm.counts, lm.totals
    smooth = alpha * max(1, len(lm.vocab))
    padded = _BOS * order + sentence
    exp, log = math.exp, math.log
    positions = []
    for j, obs in enumerate(sentence):
        cands, channel = ch.entry(obs)
        ctx = padded[j : j + order]
        counter = counts.get(ctx) or {}
        denom = totals.get(ctx, 0) + smooth
        scores = [log((counter.get(t, 0) + alpha) / denom) + b for t, b in zip(cands, channel)]
        m = max(scores)
        norm = m + log(sum([exp(s - m) for s in scores]))
        # zero-probability candidates (p_keep == 1) cannot appear in a lattice
        scored = [(t, s - norm) for t, s in zip(cands, scores) if s > -math.inf]
        scored.sort(key=lambda p: (-p[1], p[0]))
        positions.append(tuple(scored[:k]))
    return Lattice(id or sentence, sentence, tuple(positions))


def score_corpus(
    sentences: Iterable[str], lm: NgramModel, ch: ChannelModel, k: int = 5
) -> Iterable[Lattice]:
    """Score every non-blank sentence; its id is its 0-based index in ``sentences``."""
    for idx, s in enumerate(sentences):
        if s.strip():
            yield score_sentence(s, lm, ch, k=k, id=str(idx))
