"""Dictionary-guided exact search over pruned lattices, plus an exhaustive
oracle decoder used for verification.

A path's score is its summed candidate log-probabilities plus eta times the
altered-span-match reward; raw-span matches fix positions to the input
character before the search starts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from .dictionary import UserDictionary, asm_reward, rsm_fixed_positions
from .errors import DecodeError
from .lattice import CorrectionPath, Lattice, PruneConfig, prune
from .ecm import Edit


@dataclass(frozen=True)
class DecodeConfig:
    eta: float = 4.0
    prune: PruneConfig = field(default_factory=PruneConfig)
    asm_count_mode: str = "covered"

    def __post_init__(self) -> None:
        if self.eta < 0:
            raise DecodeError(f"eta must be >= 0, got {self.eta}")
        if self.asm_count_mode not in ("covered", "altered"):
            raise DecodeError(f"unknown asm count mode {self.asm_count_mode!r}")


def _effective_positions(
    lat: Lattice, dic: UserDictionary, cfg: DecodeConfig
) -> list[list[tuple[str, float]]]:
    """Pruned candidate lists with raw-span-matched positions fixed to the input.

    A fixed position whose input character is absent from its candidate
    list contributes 0.0 raw score (the character is forced, not scored).
    Dictionary guidance as a whole is scaled by eta, so eta == 0 disables
    span fixing along with the occurrence reward and the decode reduces to
    the per-position argmax.
    """
    plat = prune(lat, cfg.prune)
    positions = [[(c.token, c.logp) for c in cands] for cands in plat.positions]
    for j, cands in enumerate(positions):
        if not cands:
            raise DecodeError(f"lattice {lat.id!r}: empty position {j} after pruning")
    if cfg.eta > 0 and len(dic) and len(lat.input):
        for j in rsm_fixed_positions(lat.input, dic):
            ch = lat.input[j]
            lp = next((lp for t, lp in positions[j] if t == ch), 0.0)
            positions[j] = [(ch, lp)]
    return positions


def _reward(covered: int, altered: int, mode: str) -> int:
    mask = covered & altered if mode == "altered" else covered
    return mask.bit_count()


class _Hyp:
    """One search prefix. ``order`` is its rank under the final pick:
    (-total, -raw, altered count, parent's lexicographic rank, last token)."""

    __slots__ = ("order", "state", "covered", "altered", "raw", "parent", "token")

    def __init__(self, order, state, covered, altered, raw, parent, token):
        self.order = order
        self.state = state
        self.covered = covered
        self.altered = altered
        self.raw = raw
        self.parent = parent
        self.token = token

    def tokens(self) -> str:
        out = []
        h = self
        while h.parent is not None:
            out.append(h.token)
            h = h.parent
        return "".join(reversed(out))


def decode(lat: Lattice, dic: UserDictionary, cfg: DecodeConfig | None = None) -> CorrectionPath:
    """Exact search for the path maximizing raw score + eta * dictionary reward.

    Ties go to the higher raw score, then to fewer altered positions, then to
    the lexicographically smallest tokens, as in decode_exhaustive.
    """
    cfg = cfg or DecodeConfig()
    positions = _effective_positions(lat, dic, cfg)
    ac = dic.automaton
    step = ac.step
    ends = ac.end_lengths
    depth = ac.depth
    mode = cfg.asm_count_mode
    eta = cfg.eta
    input_s = lat.input

    # prefixes in lexicographic order of their tokens
    hyps = [_Hyp((), 0, 0, 0, 0.0, None, "")]
    for j, cands in enumerate(positions):
        merged: dict[tuple[int, int], _Hyp] = {}
        bit = 1 << j
        in_ch = input_s[j]
        for rank, hyp in enumerate(hyps):
            for tok, lp in cands:
                altered = hyp.altered | bit if tok != in_ch else hyp.altered
                state = step(hyp.state, tok)
                covered = hyp.covered
                for ln in ends(state):
                    span = ((1 << ln) - 1) << (j - ln + 1)
                    if altered & span:
                        covered |= span
                raw = hyp.raw + lp
                total = raw + eta * _reward(covered, altered, mode)
                order = (-total, -raw, altered.bit_count(), rank, tok)
                # A later term reaches back at most over the suffix this state
                # spells, whose altered bits follow from the state and the
                # input: prefixes that agree on the state and on the covered
                # bits of that suffix have the same futures.
                key = (state, covered >> (j + 1 - depth[state]))
                old = merged.get(key)
                if old is None or order < old.order:
                    merged[key] = _Hyp(order, state, covered, altered, raw, hyp, tok)
        hyps = sorted(merged.values(), key=lambda h: h.order[3:])
    best = min(hyps, key=lambda h: h.order)
    return CorrectionPath(
        tokens=best.tokens(),
        raw_score=best.raw,
        dict_score=_reward(best.covered, best.altered, cfg.asm_count_mode),
        eta=cfg.eta,
    )


DEFAULT_EXHAUSTIVE_BOUND = 10**6


def decode_exhaustive(
    lat: Lattice,
    dic: UserDictionary,
    cfg: DecodeConfig | None = None,
    max_paths: int = DEFAULT_EXHAUSTIVE_BOUND,
) -> CorrectionPath:
    """Enumerate every post-prune path and return the exact argmax.

    Refuses lattices whose post-prune path count exceeds ``max_paths``.
    Shares the scoring and tie-breaking rules with decode(), so it serves
    as its brute-force oracle.
    """
    cfg = cfg or DecodeConfig()
    positions = _effective_positions(lat, dic, cfg)
    count = 1
    for cands in positions:
        count *= len(cands)
        if count > max_paths:
            raise DecodeError(
                f"lattice {lat.id!r}: path count exceeds exhaustive bound {max_paths}"
            )
    n = len(positions)
    input_s = lat.input
    best: tuple | None = None
    best_result: tuple | None = None
    tokens: list[str] = [""] * n

    def visit(j: int, raw: float) -> None:
        nonlocal best, best_result
        if j == n:
            path = "".join(tokens)
            reward = asm_reward(input_s, path, dic, cfg.asm_count_mode) if len(dic) else 0
            total = raw + cfg.eta * reward
            altered = sum(1 for a, b in zip(path, input_s) if a != b)
            key = (-total, -raw, altered, path)
            if best is None or key < best:
                best = key
                best_result = (path, raw, reward)
            return
        for tok, lp in positions[j]:
            tokens[j] = tok
            visit(j + 1, raw + lp)

    visit(0, 0.0)
    assert best_result is not None
    path, raw, reward = best_result
    return CorrectionPath(tokens=path, raw_score=raw, dict_score=reward, eta=cfg.eta)


@dataclass
class CorpusDiagnostics:
    sentence_count: int = 0
    log10_avg_path_count: float = 0.0  # path counts outgrow floats on long lattices
    flip_count: int = 0  # sentences whose output differs from the input
    errors: list[tuple[str, str]] = field(default_factory=list)  # (lattice id, message)


def path_edits(input: str, path: str) -> list[Edit]:
    """Single-character edits turning input into path."""
    return [Edit(i, a, b) for i, (a, b) in enumerate(zip(input, path)) if a != b]


def decode_corpus(
    lats: Iterable[Lattice], dic: UserDictionary, cfg: DecodeConfig | None = None
) -> tuple[list[tuple[Lattice, CorrectionPath]], CorpusDiagnostics]:
    """Decode a lattice stream; per-record failures are reported and skipped."""
    from .lattice import candidate_path_count

    cfg = cfg or DecodeConfig()
    results: list[tuple[Lattice, CorrectionPath]] = []
    diag = CorpusDiagnostics()
    total_paths = 0
    for lat in lats:
        try:
            path = decode(lat, dic, cfg)
        except DecodeError as e:
            diag.errors.append((lat.id, str(e)))
            continue
        results.append((lat, path))
        diag.sentence_count += 1
        total_paths += candidate_path_count(lat, cfg.prune).count
        diag.flip_count += int(path.tokens != lat.input)
    if diag.sentence_count:
        diag.log10_avg_path_count = math.log10(total_paths) - math.log10(diag.sentence_count)
    return results, diag
