"""Dictionary-guided exact search over pruned lattices.

A path's score is its summed candidate log-probabilities plus eta times the
altered-span-match reward; raw-span matches fix positions to the input
character before the search starts. The reward counts the distinct
positions covered by dictionary-term occurrences in the path that contain
at least one altered position (``asm_count_mode="covered"``), or only the
altered positions among them (``"altered"``).

The search keeps the best prefix per merge key at each position. A move that
no term continues is keyed by the state it enters, any other by its state
and the covered bits of the suffix that state spells; both go through the
same merge and tie rule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .dictionary import UserDictionary, rsm_fixed_positions
from .errors import DecodeError
from .lattice import Lattice, PruneConfig, prune


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


@dataclass(frozen=True)
class DecodeConfig:
    eta: float = 4.0
    prune: PruneConfig = field(default_factory=PruneConfig)
    asm_count_mode: str = "covered"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eta) and self.eta >= 0):
            raise DecodeError(f"eta must be finite and >= 0, got {self.eta}")
        if self.asm_count_mode not in ("covered", "altered"):
            raise DecodeError(f"unknown asm count mode {self.asm_count_mode!r}")


def _effective_positions(lat: Lattice, dic: UserDictionary, cfg: DecodeConfig) -> list[tuple]:
    """The candidate lists of the pruned ``lat`` with raw-span-matched positions
    fixed to the input.

    A fixed position whose input character is absent from its candidate
    list contributes 0.0 raw score (the character is forced, not scored).
    Dictionary guidance as a whole is scaled by eta, so eta == 0 disables
    span fixing along with the occurrence reward and the decode reduces to
    the per-position argmax.
    """
    positions = list(lat.positions)
    for j, cands in enumerate(positions):
        if not cands:
            raise DecodeError(f"lattice {lat.id!r}: position {j} has no candidates")
    if cfg.eta > 0 and len(dic):
        for j in rsm_fixed_positions(lat.input, dic):
            ch = lat.input[j]
            lp = next((lp for t, lp in positions[j] if t == ch), 0.0)
            positions[j] = ((ch, lp),)
    return positions


def decode(
    lat: Lattice, dic: UserDictionary, cfg: DecodeConfig | None = None, *, _pruned: bool = False
) -> CorrectionPath:
    """Exact search for the path maximizing raw score + eta * dictionary reward.

    Ties go to the higher raw score, then to fewer altered positions, then to
    the lexicographically smallest tokens.
    ``_pruned`` marks ``lat`` as already pruned under ``cfg.prune``.
    """
    cfg = cfg or DecodeConfig()
    positions = _effective_positions(lat if _pruned else prune(lat, cfg.prune), dic, cfg)
    table, root, ends, depth = dic.table, dic.root, dic.ends, dic.depth
    altered_mode = cfg.asm_count_mode == "altered"
    eta = cfg.eta
    input_s = lat.input

    # A prefix is (parent rank, token, total, raw, altered count, reward,
    # state, covered, altered, parent). Its rank under the final pick is
    # (-total, -raw, altered count, parent rank, token); the leading pair is
    # unique per position, so prefixes sort into lexicographic token order
    # without a key.
    hyps = [(0, "", 0.0, 0.0, 0, 0, 0, 0, 0, None)]
    for j, cands in enumerate(positions):
        merged: dict[int | tuple[int, int], tuple] = {}
        bit = 1 << j
        in_ch = input_s[j]
        # (token, logp, altered?, the state entered when no term continues the prefix)
        moves = [(tok, lp, tok != in_ch, root.get(tok, 0)) for tok, lp in cands]
        for rank, hyp in enumerate(hyps):
            _, _, _, raw0, n_alt0, reward0, state0, covered0, altered0, _ = hyp
            nxt = table[state0]
            bonus0 = eta * reward0
            for tok, lp, alt, shallow in moves:
                if alt:
                    altered, n_alt = altered0 | bit, n_alt0 + 1
                else:
                    altered, n_alt = altered0, n_alt0
                raw = raw0 + lp
                covered = covered0
                reward = reward0
                state = nxt.get(tok)
                if state is None:
                    # No term continues the prefix: the root or a depth-1 state ends
                    # no term and spells no covered bit, so it alone is the key.
                    key = state = shallow
                    total = raw + bonus0
                else:
                    lens = ends[state]
                    if lens:
                        for ln in lens:
                            span = ((1 << ln) - 1) << (j - ln + 1)
                            if altered & span:
                                covered |= span
                        # Only a term ending here widens the reward: bit j is
                        # uncovered until now, so gaining it in altered cannot.
                        if covered != covered0:
                            reward = (covered & altered if altered_mode else covered).bit_count()
                    total = raw + eta * reward
                    # A later term reaches back at most over the suffix this state
                    # spells, whose altered bits follow from the state and the
                    # input: prefixes that agree on the state and on the covered
                    # bits of that suffix have the same futures. The tuple never
                    # equals a shallow move's int key.
                    key = (state, covered >> (j + 1 - depth[state]))
                old = merged.get(key)
                if (
                    old is None
                    or total > old[2]
                    or total == old[2]
                    and (-raw, n_alt, rank, tok) < (-old[3], old[4], old[0], old[1])
                ):
                    merged[key] = (
                        rank, tok, total, raw, n_alt, reward, state, covered, altered, hyp
                    )
        hyps = sorted(merged.values())
    best = min(hyps, key=lambda h: (-h[2], -h[3], h[4], h[0], h[1]))
    out = []
    h = best
    while h[9] is not None:
        out.append(h[1])
        h = h[9]
    return CorrectionPath(
        tokens="".join(reversed(out)), raw_score=best[3], dict_score=best[5], eta=cfg.eta
    )


@dataclass
class CorpusDiagnostics:
    sentence_count: int = 0
    total_paths: int = 0  # exact: path counts outgrow floats on long lattices
    flip_count: int = 0  # sentences whose output differs from the input
    errors: list[tuple[str, str]] = field(default_factory=list)  # (lattice id, message)

    @property
    def log10_avg_path_count(self) -> float:
        if not self.sentence_count:
            return 0.0
        return math.log10(self.total_paths) - math.log10(self.sentence_count)


def decode_corpus(
    lats: Iterable[Lattice],
    dic: UserDictionary,
    cfg: DecodeConfig | None = None,
    diag: CorpusDiagnostics | None = None,
) -> Iterator[tuple[Lattice, CorrectionPath]]:
    """Decode a lattice stream lazily, yielding ``(lattice, path)`` per record.

    Per-record decode failures are recorded in ``diag`` and skipped; ``diag``
    is up to date whenever a record is yielded. Each lattice is pruned once,
    for both the search and the path count, and only one is held at a time.
    """
    cfg = cfg or DecodeConfig()
    if diag is None:
        diag = CorpusDiagnostics()
    for lat in lats:
        plat = prune(lat, cfg.prune)
        try:
            path = decode(plat, dic, cfg, _pruned=True)
        except DecodeError as e:
            diag.errors.append((lat.id, str(e)))
            continue
        diag.sentence_count += 1
        diag.total_paths += math.prod(map(len, plat.positions))
        diag.flip_count += int(path.tokens != lat.input)
        yield lat, path
