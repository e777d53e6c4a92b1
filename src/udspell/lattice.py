"""Top-k candidate lattices: parsing, writing and pruning.

A lattice holds, for every position of an input sentence, a short list of
candidate characters with natural-log probabilities, as emitted by any
token-classification speller. The interchange format is UTF-8 JSON lines,
one record per sentence:

    {"id": "...", "input": "...", "positions": [[{"t": "x", "lp": -0.5}, ...], ...]}

Candidates are canonically ordered by log-probability descending, ties by
token code point ascending. ``make_lattice`` checks a lattice that is read
(``parse_lattice``) or built by a caller, and puts it in that order in one
pass. The scorer's ``score_sentence`` builds each position once, canonical
by construction, with its confusion tokens checked once per observed
character; ``prune`` derives a lattice from a valid one without checking it
again. Positions hold plain ``(str, float)`` tuples: ``make_lattice`` stores
every logp as the nearest float, and ``write_lattices`` is the one writer.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

from .errors import LatticeError


@dataclass(frozen=True)
class Lattice:
    """Per-position top-k candidates for one input sentence. The constructor
    checks nothing, and pruning and decoding trust the positions as given:
    build a lattice with make_lattice, parse_lattice, score_sentence or prune."""

    id: str
    input: str
    positions: tuple[tuple[tuple[str, float], ...], ...]


@dataclass(frozen=True)
class PruneConfig:
    """Thresholds controlling candidate pruning.

    A position whose top candidate exceeds ``max_logp`` is fixed to that
    single candidate; candidates below ``min_logp`` are discarded unless
    that would empty the position, in which case the top candidate survives.
    """

    min_logp: float = -11.0
    max_logp: float = -0.001
    k: int = 5

    def __post_init__(self) -> None:
        if not (self.min_logp < self.max_logp <= 0.0):
            raise LatticeError(
                f"require min_logp < max_logp <= 0, got {self.min_logp}, {self.max_logp}"
            )
        if self.k < 1:
            raise LatticeError(f"k must be >= 1, got {self.k}")


def _plain_logp(id: str, lp) -> float:
    """A logp that is not an exact float, as the nearest float, whose repr is
    its JSON form; a bool, a value without ``__float__`` such as a string or
    None, or one out of float range is refused."""
    if isinstance(lp, bool) or not hasattr(lp, "__float__"):
        raise LatticeError(f"lattice {id!r}: logp must be a number, got {lp!r}")
    try:
        return float(lp)
    except OverflowError as e:
        raise LatticeError(f"lattice {id!r}: logp out of float range: {e}") from e


def make_lattice(id: str, input: str, positions: Iterable[Iterable[tuple[str, float]]]) -> Lattice:
    """Check and build a lattice from per-position ``(token, logp)`` pairs, each
    position in canonical order. LatticeError names the first violation of: a str
    id and a str input, one character per token, a logp that is a number but not
    a bool, in float range, finite and <= 0, unique tokens per position, and one
    position per input character."""
    if not isinstance(id, str):
        raise LatticeError(f"lattice {id!r}: id must be a string, got {type(id).__name__}")
    if not isinstance(input, str):
        raise LatticeError(f"lattice {id!r}: input must be a string, got {type(input).__name__}")
    canon = []
    for j, pairs in enumerate(positions):
        cands = []
        in_order = True
        prev_lp, prev_tok = math.inf, ""
        for tok, lp in pairs:
            if len(tok) != 1:
                raise LatticeError(f"lattice {id!r}: token must be one character, got {tok!r}")
            if type(lp) is not float:
                lp = _plain_logp(id, lp)
            if not (math.isfinite(lp) and lp <= 0.0):
                raise LatticeError(f"lattice {id!r}: logp must be finite and <= 0, got {lp!r}")
            if lp > prev_lp or lp == prev_lp and tok <= prev_tok:
                in_order = False
            prev_lp, prev_tok = lp, tok
            cands.append((tok, lp))
        if len(dict(cands)) != len(cands):  # keyed by token
            raise LatticeError(f"lattice {id!r}: duplicate token at position {j}")
        if not in_order:
            cands.sort(key=lambda c: (-c[1], c[0]))
        canon.append(tuple(cands))
    if len(canon) != len(input):
        raise LatticeError(f"lattice {id!r}: {len(canon)} positions for {len(input)}-char input")
    return Lattice(id=id, input=input, positions=tuple(canon))


def parse_lattice(stream: Iterable[str] | IO[str]) -> Iterator[Lattice]:
    """Parse JSON-lines lattice records, yielding one Lattice per record.

    Raises LatticeError naming the (0-based) record index on any malformed
    or structurally inconsistent record.
    """
    for idx, line in enumerate(stream):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            positions = [[(c["t"], c["lp"]) for c in pos] for pos in obj["positions"]]
            # a JSON number id is read as its text; make_lattice refuses other non-strings
            lat_id = str(obj["id"]) if type(obj["id"]) in (int, float) else obj["id"]
            yield make_lattice(lat_id, obj["input"], positions)
        except LatticeError as e:
            raise LatticeError(f"record {idx}: {e}") from e
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as e:
            raise LatticeError(f"record {idx}: malformed lattice record: {e}") from e


_to_json = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


class _TokenPrefixes(dict):
    """Token -> the JSON text ``{"t":<token>,"lp":`` that opens its candidate,
    made on first use. A logp is a float, whose repr is its JSON form, so only
    the token needs the encoder."""

    def __missing__(self, tok: str) -> str:
        prefix = self[tok] = '{"t":' + _to_json(tok) + ',"lp":'
        return prefix


def write_lattices(lats: Iterable[Lattice], fh: IO[str]) -> None:
    """Write each lattice as one line: the bytes of ``json.dumps`` of its dict
    form with ``ensure_ascii=False`` and ``separators=(",", ":")``."""
    prefixes = _TokenPrefixes()
    for lat in lats:
        positions = ",".join(
            ["[" + ",".join([prefixes[t] + repr(lp) + "}" for t, lp in pos]) + "]"
             for pos in lat.positions]
        )
        fh.write(
            f'{{"id":{_to_json(lat.id)},"input":{_to_json(lat.input)},"positions":[{positions}]}}\n'
        )


def prune(lat: Lattice, cfg: PruneConfig) -> Lattice:
    """Apply threshold pruning position by position.

    Never empties a position: if every candidate falls below ``min_logp``
    the single top candidate is retained.
    """
    out = []
    for cands in lat.positions:
        if cands and cands[0][1] > cfg.max_logp:
            out.append((cands[0],))
            continue
        kept = cands[: cfg.k]
        if kept and kept[-1][1] < cfg.min_logp:  # canonical order: the survivors are a prefix
            kept = kept[: next(i for i, c in enumerate(kept) if c[1] < cfg.min_logp) or 1]
        out.append(kept)
    return Lattice(id=lat.id, input=lat.input, positions=tuple(out))
