import io
import math
import random
from types import SimpleNamespace

import pytest

from udspell.confusion import CharConfusion, default_char_confusion
from udspell.lattice import PruneConfig, make_lattice, write_lattices
from udspell.pinyin import default_table

VOCAB = [chr(ord("一") + i) for i in range(20)]

# prune() keeps every candidate of every position under this config
NO_PRUNE = PruneConfig(min_logp=-math.inf, max_logp=-0.0, k=10**6)


def argmax_tokens(lat) -> str:
    """The per-position argmax path: each position's first candidate."""
    return "".join(cands[0][0] for cands in lat.positions)


def lattice_line(lat) -> str:
    """The line write_lattices writes for one lattice, newline included."""
    buf = io.StringIO()
    write_lattices([lat], buf)
    return buf.getvalue()


def serve_bundled_text(monkeypatch, module, text):
    """Make every package-data file that ``module`` reads hold ``text``."""
    path = SimpleNamespace(read_text=lambda encoding: text)
    files = SimpleNamespace(joinpath=lambda name: path)
    monkeypatch.setattr(module, "resources", SimpleNamespace(files=lambda package: files))


def random_lattice(rng: random.Random, max_n=6, max_k=3, vocab=None, lattice_id="L"):
    """Random valid lattice; the input char is usually the top candidate."""
    vocab = vocab or VOCAB
    n = rng.randint(1, max_n)
    input_chars = []
    positions = []
    for _ in range(n):
        k = rng.randint(1, max_k)
        toks = rng.sample(vocab, k)
        lps = sorted((rng.uniform(-14.0, -0.0005) for _ in range(k)), reverse=True)
        positions.append(list(zip(toks, lps)))
        input_chars.append(toks[0] if rng.random() < 0.7 else rng.choice(vocab))
    return make_lattice(lattice_id, "".join(input_chars), positions)


@pytest.fixture(scope="session")
def pinyin_table():
    return default_table()


@pytest.fixture(scope="session")
def char_confusion():
    return default_char_confusion()


def make_dense_confusion():
    """Synthetic confusion over 30 chars where every char has P and M candidates."""
    chars = [chr(ord("一") + i) for i in range(30)]
    cc = CharConfusion()
    for i, c in enumerate(chars):
        cc.phonetic[c] = {chars[(i + 1) % 30], chars[(i + 2) % 30]}
        cc.morphological[c] = {chars[(i + 3) % 30]}
    # the fragment map holds each pair in both directions
    two, three = "".join(chars[0:2]), "".join(chars[2:5])
    pairs = [(two, "".join(chars[5:7])), (three, "".join(chars[7:10]))]
    ng = {a: {b} for a, b in pairs} | {b: {a} for a, b in pairs}
    return chars, cc, ng


@pytest.fixture
def dense_confusion():
    return make_dense_confusion()
