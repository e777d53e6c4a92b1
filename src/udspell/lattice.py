"""Top-k candidate lattices: parsing, serialization, pruning, path counting.

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
again. Positions hold plain ``(token, logp)`` tuples, whose logp is an exact
``float`` or ``int``; ``Candidate`` is the equal-comparing name for building
them.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, NamedTuple

from .errors import LatticeError


class Candidate(NamedTuple):
    """One candidate character with its natural-log probability. It compares
    equal to the plain ``(token, logp)`` tuple a lattice stores for it."""

    token: str
    logp: float


@dataclass(frozen=True)
class Lattice:
    """Per-position top-k candidates for one input sentence. The constructor
    checks nothing, and pruning and decoding trust the positions as given:
    build a lattice with make_lattice, parse_lattice, score_sentence or prune."""

    id: str
    input: str
    positions: tuple[tuple[tuple[str, float], ...], ...]

    def __len__(self) -> int:
        return len(self.input)


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


def _plain_logp(id: str, lp) -> int | float:
    """A logp that is not an exact float, as the exact int or float of equal
    value, whose repr is its JSON form; a bool, or a value without ``__float__``
    such as a string or None, is refused."""
    if isinstance(lp, bool) or not hasattr(lp, "__float__"):
        raise LatticeError(f"lattice {id!r}: logp must be a number, got {lp!r}")
    return int(lp) if isinstance(lp, int) else float(lp)


def make_lattice(id: str, input: str, positions: Iterable[Iterable[tuple[str, float]]]) -> Lattice:
    """Check and build a lattice from per-position ``(token, logp)`` pairs, each
    position in canonical order. LatticeError names the first violation of: a str
    input, one character per token, finite logp <= 0 and not a bool, unique
    tokens per position, and one position per input character."""
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
            # a JSON int is read as a float (make_lattice refuses bools, strings, null)
            positions = [
                [(c["t"], lp if type(lp := c["lp"]) is not int else float(lp)) for c in pos]
                for pos in obj["positions"]
            ]
            yield make_lattice(str(obj["id"]), obj["input"], positions)
        except LatticeError as e:
            raise LatticeError(f"record {idx}: {e}") from e
        except (KeyError, TypeError, ValueError, OverflowError, json.JSONDecodeError) as e:
            raise LatticeError(f"record {idx}: malformed lattice record: {e}") from e


def serialize_lattice(lat: Lattice) -> str:
    """Canonical single-line JSON form of one lattice record: the bytes of
    ``json.dumps`` of its dict form with ``ensure_ascii=False`` and
    ``separators=(",", ":")``."""
    return _record(lat, _TokenPrefixes())


def write_lattices(lats: Iterable[Lattice], fh: IO[str]) -> None:
    """Write each lattice's serialize_lattice form as one line."""
    prefixes = _TokenPrefixes()
    for lat in lats:
        fh.write(_record(lat, prefixes) + "\n")


_to_json = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


class _TokenPrefixes(dict):
    """Token -> the JSON text ``{"t":<token>,"lp":`` that opens its candidate,
    made on first use. A logp is an exact float or int, whose repr is its JSON
    form, so only the token needs the encoder."""

    def __missing__(self, tok: str) -> str:
        prefix = self[tok] = '{"t":' + _to_json(tok) + ',"lp":'
        return prefix


def _record(lat: Lattice, prefixes: _TokenPrefixes) -> str:
    """serialize_lattice's text, taking token prefixes from ``prefixes``."""
    positions = ",".join(
        ["[" + ",".join([prefixes[t] + repr(lp) + "}" for t, lp in pos]) + "]"
         for pos in lat.positions]
    )
    return f'{{"id":{_to_json(lat.id)},"input":{_to_json(lat.input)},"positions":[{positions}]}}'


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


def candidate_path_count(lat: Lattice) -> int:
    """Exact number of paths: the product of the position sizes."""
    count = 1
    for cands in lat.positions:
        count *= len(cands)
    return count

