"""Seeded synthetic inputs for the pipeline benchmark.

Everything here is derived from one ``random.Random(seed)``, so the same
seed gives byte-identical files. The program under test only ever sees the
files written by :func:`write_inputs`; the in-memory :class:`Inputs` object
is what the benchmark's own reference computations read.

Workloads (sizes are per round; a run repeats whole rounds):

- ``dense``: a text corpus of 36-44-character sentences over a 3000-char
  synthetic alphabet, drawn from a Zipf-weighted word list so n-grams repeat,
  for every command but ``decode``; ``decode`` reads benchmark-built lattices
  of 60 positions x 5 candidates with a dictionary drawn from their
  candidates, so that raw-span and altered-span matches fire often, plus
  small lattices with too few paths for the beam to cut.
- ``long``: 2000-character documents over a 2001-char alphabet through the
  whole chain.

Decode dictionaries take their term lengths from TERM_LENGTHS, so every seed
has terms of every length from 2 to 8 in the same numbers: the longest term
sets the decoder's window, and the ideal dictionary's longest phrases are 6-8
characters.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# Pinyin inventory used to give the synthetic alphabet readings. The
# benchmark owns this table; it only has to be valid input for the program.
INITIALS = (
    "zh", "ch", "sh", "b", "p", "m", "f", "d", "t", "n", "l",
    "g", "k", "h", "j", "q", "x", "r", "z", "c", "s", "y", "w",
)
FINALS = (
    "a", "o", "e", "i", "u", "ai", "ei", "ao", "ou", "an", "en",
    "ang", "eng", "ong", "ia", "ie", "iao", "ian", "in", "ing", "uo", "ui", "un",
)
# The fuzzy initial groups of pinyin input methods (z/zh, c/ch, s/sh, l/n, f/h).
FUZZY = {"zh": "z", "ch": "c", "sh": "s", "n": "l", "h": "f"}

CJK_FIRST = 0x4E00
CJK_LAST = 0x9FFF

DENSE_LENGTH = 60
DENSE_CANDIDATES = 5
# Small lattices (candidates per position) whose post-prune path count, at
# most 16, stays within the decoder's default beam of 20 hypotheses, so the
# beam search must find their exact maximum.
EXACT_SHAPES = ((4, 4), (2, 2, 4), (2, 3, 3), (2, 2, 2, 2))
BEAM_SIZE = 20

# Decode dictionary term lengths, cycled: mostly 2-4 characters, as in the
# ideal dictionary, with a tail up to 8 so the decoder's window is 8 on
# every seed.
TERM_LENGTHS = (2, 3, 2, 4, 2, 3, 5, 2, 4, 6, 3, 7, 2, 4, 8)


@dataclass(frozen=True)
class Shape:
    alphabet: int  # characters in the synthetic alphabet
    words: int  # Zipf word list size
    sentences: int  # corpus sentences per round
    min_len: int
    max_len: int
    repeat: int  # calls per round of every command but decode
    dense_lattices: int = 0  # benchmark-built decode lattices (dense only)
    exact_lattices: int = 0  # small lattices the beam cannot cut (dense only)
    corpus_terms: int = 0  # decode dictionary terms drawn from the corpus (long only)


SHAPES = {
    "dense": Shape(
        alphabet=3000, words=3000, sentences=400, min_len=36, max_len=44, repeat=2,
        dense_lattices=400, exact_lattices=40,
    ),
    "long": Shape(
        alphabet=2001, words=3000, sentences=4, min_len=2000, max_len=2000, repeat=4,
        corpus_terms=120,
    ),
}

# Flags the workloads need beyond the defaults: ``ideal-dict`` has no
# default proportion.
IDEAL_PROPORTION = 0.5


def fuzzy_key(syllable: str) -> str:
    """Tone-less reading with the initial folded to its fuzzy group."""
    body = syllable[:-1]
    for ini in INITIALS:
        if body.startswith(ini) and body[len(ini):] in FINALS:
            return FUZZY.get(ini, ini) + body[len(ini):]
    return body


@dataclass
class DenseLattice:
    id: str
    input: str
    gold: str
    positions: list[list[tuple[str, float]]]  # canonical order


@dataclass
class Inputs:
    workload: str
    seed: int
    alphabet: list[str]
    readings: dict[str, list[str]]  # char -> syllables with tone digit
    phonetic: dict[str, set[str]]
    shape: dict[str, set[str]]
    corpus: list[str]
    dense: list[DenseLattice] = field(default_factory=list)
    terms: list[str] = field(default_factory=list)  # the decode dictionary

    def confusions(self, ch: str) -> set[str]:
        return self.phonetic.get(ch, set()) | self.shape.get(ch, set())

    def keys(self, ch: str) -> set[str]:
        return {fuzzy_key(s) for s in self.readings.get(ch, ())}


def _groups(items: list[str], size: int) -> list[list[str]]:
    return [items[i : i + size] for i in range(0, len(items), size)]


def make_inputs(workload: str, seed: int) -> Inputs:
    """Seeded inputs whose structure does not depend on the seed.

    Confusion-set sizes, word lengths by Zipf rank and sentence lengths
    follow fixed patterns; the seed picks the characters, which character
    plays which role, and the word draws. That keeps the work per round
    alike across seeds while the text differs.
    """
    shape = SHAPES[workload]
    rng = random.Random(f"perfbench:{workload}:{seed}")
    chars = [chr(c) for c in rng.sample(range(CJK_FIRST, CJK_LAST + 1), shape.alphabet)]
    alphabet = sorted(chars)
    # Characters come in phonetic triples: the three share a syllable (tones
    # differ) and list each other as phonetic confusions. Shape triples take
    # one member from each of three consecutive phonetic triples, so every
    # character has exactly four confusions and a lattice position five
    # candidates. Every tenth character is a polyphone.
    syllables = [i + f for i in INITIALS for f in FINALS]
    triples = _groups(chars, 3)
    readings: dict[str, list[str]] = {}
    phonetic: dict[str, set[str]] = {}
    for t, group in enumerate(triples):
        syl = syllables[t % len(syllables)]
        for k, ch in enumerate(group):
            readings[ch] = [f"{syl}{k + 1}"]
            phonetic[ch] = set(group) - {ch}
    for k, ch in enumerate(chars):
        if k % 10 == 9:
            readings[ch].append(f"{syllables[(k * 7) % len(syllables)]}5")
    shape_conf: dict[str, set[str]] = {}
    for t in range(len(triples)):
        group = {triples[(t + k) % len(triples)][k] for k in range(3)}
        for ch in group:
            shape_conf[ch] = group - {ch}

    # Zipf-weighted word list; word length by rank, two-char words most common
    lengths = (2, 1, 2, 3, 2, 4, 2, 1, 3, 2)
    words = [
        "".join(rng.choice(chars) for _ in range(lengths[r % len(lengths)]))
        for r in range(shape.words)
    ]
    cum = list(itertools.accumulate(1.0 / (r + 1) for r in range(len(words))))

    corpus = []
    span = shape.max_len - shape.min_len + 1
    for i in range(shape.sentences):
        target = shape.min_len + i % span
        parts: list[str] = []
        size = 0
        while size < target:
            w = rng.choices(words, cum_weights=cum)[0]
            parts.append(w)
            size += len(w)
        corpus.append("".join(parts)[:target])

    inputs = Inputs(workload, seed, alphabet, readings, phonetic, shape_conf, corpus)
    if shape.dense_lattices:
        _make_dense(inputs, rng, shape.dense_lattices, shape.exact_lattices)
    if shape.corpus_terms:
        # Spans of the clean text: they pin uncorrupted input and reward
        # corrections that restore it. Drawn by the benchmark rather than
        # taken from ideal-dict, whose longest phrase varies with the seed.
        terms: set[str] = set()
        for k in range(shape.corpus_terms):
            ln = TERM_LENGTHS[k % len(TERM_LENGTHS)]
            while True:
                doc = rng.choice(corpus)
                s = rng.randrange(len(doc) - ln + 1)
                if doc[s : s + ln] not in terms:
                    terms.add(doc[s : s + ln])
                    break
        inputs.terms = sorted(terms)
    return inputs


def _softmax_candidates(toks: set[str], rng: random.Random) -> list[tuple[str, float]]:
    """Log-probabilities from random logits, in canonical order."""
    logits = {t: rng.gauss(0.0, 1.0) for t in sorted(toks)}
    norm = math.log(sum(math.exp(v) for v in logits.values()))
    cands = [(t, min(v - norm, 0.0)) for t, v in logits.items()]
    cands.sort(key=lambda p: (-p[1], p[0]))
    return cands


def _draw_term(gold: str, positions: list, ln: int, rng: random.Random) -> str:
    """A span of ``ln`` characters drawn from the candidates at consecutive
    positions, biased toward the gold path."""
    s = rng.randrange(0, len(gold) - ln + 1)
    return "".join(
        gold[j] if rng.random() < 0.5 else rng.choice(positions[j])[0]
        for j in range(s, s + ln)
    )


def _make_dense(inputs: Inputs, rng: random.Random, count: int, exact: int) -> None:
    """Lattices of DENSE_LENGTH x DENSE_CANDIDATES with a candidate-drawn
    dictionary, then ``exact`` small lattices of EXACT_SHAPES.

    Each position holds the gold character and its confusions (random
    characters fill a smaller confusion set, and the small lattices take
    the first few); log-probabilities are a softmax of random logits, so the
    pruner fixes nothing and every candidate survives. The input is the top
    candidate. Each large lattice adds eight terms with lengths from
    TERM_LENGTHS, each small one two terms of two characters or more.
    """
    alphabet = inputs.alphabet
    terms: set[str] = set()
    drawn = 0

    def lattice(lid: str, widths: tuple[int, ...]) -> DenseLattice:
        gold = "".join(rng.choice(alphabet) for _ in widths)
        positions = []
        for g, width in zip(gold, widths):
            toks = {g}
            pool = sorted(inputs.confusions(g))
            rng.shuffle(pool)
            for c in pool:
                if len(toks) < width:
                    toks.add(c)
            while len(toks) < width:
                toks.add(rng.choice(alphabet))
            positions.append(_softmax_candidates(toks, rng))
        text = "".join(p[0][0] for p in positions)
        lat = DenseLattice(lid, text, gold, positions)
        inputs.dense.append(lat)
        return lat

    for i in range(count):
        lat = lattice(f"d{i}", (DENSE_CANDIDATES,) * DENSE_LENGTH)
        for _ in range(8):
            ln = TERM_LENGTHS[drawn % len(TERM_LENGTHS)]
            drawn += 1
            terms.add(_draw_term(lat.gold, lat.positions, ln, rng))
    for i in range(exact):
        widths = EXACT_SHAPES[i % len(EXACT_SHAPES)]
        assert math.prod(widths) <= BEAM_SIZE
        lat = lattice(f"x{i}", widths)
        for _ in range(2):
            terms.add(_draw_term(lat.gold, lat.positions, rng.randint(2, len(widths)), rng))
    inputs.terms = sorted(terms)


def _dense_record(lat: DenseLattice) -> dict:
    return {
        "id": lat.id,
        "input": lat.input,
        "positions": [[{"t": t, "lp": lp} for t, lp in pos] for pos in lat.positions],
    }


def write_inputs(inputs: Inputs, work: Path) -> dict[str, Path]:
    """Write the program-facing input files; returns their paths by role."""
    import json

    paths = {
        "pinyin": work / "pinyin.tsv",
        "chars": work / "chars.tsv",
        "corpus": work / "corpus.txt",
    }
    with open(paths["pinyin"], "w", encoding="utf-8") as fh:
        for ch in inputs.alphabet:
            fh.write(f"{ch}\t{','.join(inputs.readings[ch])}\n")
    with open(paths["chars"], "w", encoding="utf-8") as fh:
        for tag, table in (("P", inputs.phonetic), ("M", inputs.shape)):
            for ch in sorted(table):
                fh.write(f"{ch}\t{tag}\t{','.join(sorted(table[ch]))}\n")
    paths["corpus"].write_text("".join(s + "\n" for s in inputs.corpus), "utf-8")
    if inputs.dense:
        paths["dense_lattices"] = work / "dense.jsonl"
        with open(paths["dense_lattices"], "w", encoding="utf-8") as fh:
            for lat in inputs.dense:
                fh.write(json.dumps(_dense_record(lat), ensure_ascii=False) + "\n")
    paths["terms"] = work / "terms.txt"
    paths["terms"].write_text("".join(t + "\n" for t in inputs.terms), "utf-8")
    return paths
