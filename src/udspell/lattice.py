"""Top-k candidate lattices: parsing, serialization, pruning, path counting.

A lattice holds, for every position of an input sentence, a short list of
candidate characters with natural-log probabilities, as emitted by any
token-classification speller. The interchange format is UTF-8 JSON lines,
one record per sentence:

    {"id": "...", "input": "...", "positions": [[{"t": "x", "lp": -0.5}, ...], ...]}

Candidates are canonically ordered by log-probability descending, ties by
token code point ascending. ``make_lattice``, through which the parser and
the scorer build every lattice, checks it and puts it in that order in one
pass, so positions are canonical by construction; ``prune`` derives a
lattice from a valid one without checking it again.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, NamedTuple

from .errors import LatticeError


class Candidate(NamedTuple):
    """One candidate character with its natural-log probability."""

    token: str
    logp: float


@dataclass(frozen=True)
class Lattice:
    """Per-position top-k candidates for one input sentence. The constructor
    checks nothing, and pruning and decoding trust the positions as given:
    build a lattice with make_lattice, parse_lattice or prune."""

    id: str
    input: str
    positions: tuple[tuple[Candidate, ...], ...]

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


def make_lattice(id: str, input: str, positions: Iterable[Iterable[tuple[str, float]]]) -> Lattice:
    """Check and build a lattice from per-position ``(token, logp)`` pairs, each
    position in canonical order. LatticeError names the first violation of: a str
    input, one character per token, finite logp <= 0, unique tokens per position,
    and one position per input character."""
    if not isinstance(input, str):
        raise LatticeError(f"lattice {id!r}: input must be a string, got {type(input).__name__}")
    canon = []
    for j, pairs in enumerate(positions):
        cands = []
        for tok, lp in pairs:
            if len(tok) != 1:
                raise LatticeError(f"lattice {id!r}: token must be one character, got {tok!r}")
            if not (math.isfinite(lp) and lp <= 0.0):
                raise LatticeError(f"lattice {id!r}: logp must be finite and <= 0, got {lp!r}")
            cands.append(Candidate(tok, lp))
        if len({c.token for c in cands}) != len(cands):
            raise LatticeError(f"lattice {id!r}: duplicate token at position {j}")
        cands.sort(key=lambda c: (-c.logp, c.token))
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
            positions = [[(c["t"], float(c["lp"])) for c in pos] for pos in obj["positions"]]
            yield make_lattice(str(obj["id"]), obj["input"], positions)
        except LatticeError as e:
            raise LatticeError(f"record {idx}: {e}") from e
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as e:
            raise LatticeError(f"record {idx}: malformed lattice record: {e}") from e


def serialize_lattice(lat: Lattice) -> str:
    """Canonical single-line JSON form of one lattice record."""
    obj = {
        "id": lat.id,
        "input": lat.input,
        "positions": [[{"t": t, "lp": lp} for t, lp in pos] for pos in lat.positions],
    }
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def write_lattices(lats: Iterable[Lattice], fh: IO[str]) -> None:
    for lat in lats:
        fh.write(serialize_lattice(lat) + "\n")


def prune(lat: Lattice, cfg: PruneConfig) -> Lattice:
    """Apply threshold pruning position by position.

    Never empties a position: if every candidate falls below ``min_logp``
    the single top candidate is retained.
    """
    out = []
    for cands in lat.positions:
        if cands and cands[0].logp > cfg.max_logp:
            out.append((cands[0],))
            continue
        kept = tuple(c for c in cands if c.logp >= cfg.min_logp)[: cfg.k]
        if not kept and cands:
            kept = (cands[0],)
        out.append(kept)
    return Lattice(id=lat.id, input=lat.input, positions=tuple(out))


def candidate_path_count(lat: Lattice) -> int:
    """Exact number of paths: the product of the position sizes."""
    count = 1
    for cands in lat.positions:
        count *= len(cands)
    return count

