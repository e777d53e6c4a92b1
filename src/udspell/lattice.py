"""Top-k candidate lattices: parsing, pruning, greedy decoding, path counting.

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

    @classmethod
    def disabled(cls, k: int = 10**6) -> "PruneConfig":
        """A config under which prune() keeps every candidate unchanged."""
        return cls(min_logp=-math.inf, max_logp=-0.0, k=k)


@dataclass(frozen=True)
class CorrectionPath:
    """One token per position plus its raw and dictionary scores."""

    tokens: str
    raw_score: float
    dict_score: int = 0
    eta: float = 0.0

    @property
    def total(self) -> float:
        return self.raw_score + self.eta * self.dict_score


def make_lattice(id: str, input: str, positions: Iterable[Iterable[tuple[str, float]]]) -> Lattice:
    """Check and build a lattice from per-position ``(token, logp)`` pairs, each
    position in canonical order. LatticeError names the first violation of: one
    character per token, finite logp <= 0, unique tokens per position, and one
    position per input character."""
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


def greedy_path(lat: Lattice) -> CorrectionPath:
    """Per-position argmax path; raw score is the sum of top log-probs."""
    tokens = []
    raw = 0.0
    for j, cands in enumerate(lat.positions):
        if not cands:
            raise LatticeError(f"lattice {lat.id!r}: empty position {j}")
        tokens.append(cands[0].token)
        raw += cands[0].logp
    return CorrectionPath(tokens="".join(tokens), raw_score=raw)


@dataclass(frozen=True)
class PathCount:
    """Exact candidate-path count plus its natural log (overflow-safe view)."""

    count: int
    log_count: float


def candidate_path_count(lat: Lattice, cfg: PruneConfig | None = None) -> PathCount:
    """Product over positions of the (optionally post-prune) candidate count."""
    target = prune(lat, cfg) if cfg is not None else lat
    count = 1
    log_count = 0.0
    for cands in target.positions:
        count *= len(cands)
        log_count += math.log(len(cands)) if cands else -math.inf
    return PathCount(count=count, log_count=log_count)

