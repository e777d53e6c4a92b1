"""The benchmark's own reference computations.

Nothing here imports ``udspell``: the decoder, the dictionary matching, the
scorer posterior and the metrics are recomputed from their documented
definitions so that the program's outputs can be checked against them.

Decoding objective (the program's documented rule): a path scores its summed
candidate log-probabilities plus ``eta`` times the number of distinct
positions covered by dictionary-term occurrences in the path that contain at
least one altered position. Before the search, candidates are pruned (a
position whose top log-probability exceeds ``max_logp`` keeps only that
candidate; otherwise candidates below ``min_logp`` go, at most ``k`` stay,
and the top one survives if nothing else does), and every position covered
by a term occurrence in the raw input is pinned to the input character.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

Positions = list[list[tuple[str, float]]]

# udspell decode defaults
ETA = 4.0
MIN_LOGP = -11.0
MAX_LOGP = -0.001
TOPK = 5

# udspell score / train-scorer defaults
ORDER = 2
ALPHA = 0.1
P_KEEP = 0.97
BOS = "\x02"


def prune(positions: Positions, min_logp=MIN_LOGP, max_logp=MAX_LOGP, k=TOPK) -> Positions:
    out = []
    for cands in positions:
        if cands and cands[0][1] > max_logp:
            out.append([cands[0]])
            continue
        kept = [c for c in cands if c[1] >= min_logp][:k]
        out.append(kept or cands[:1])
    return out


def occurrences(text: str, terms: set[str], lengths: list[int]):
    """(start, end) of every term occurrence in text, by plain substring scan."""
    for ln in lengths:
        for s in range(len(text) - ln + 1):
            if text[s : s + ln] in terms:
                yield s, s + ln


def pin(input: str, positions: Positions, terms: set[str], eta=ETA) -> Positions:
    """Fix every raw-span-matched position to its input character."""
    if eta <= 0 or not terms:
        return positions
    lengths = sorted({len(t) for t in terms})
    fixed: set[int] = set()
    for s, e in occurrences(input, terms, lengths):
        fixed.update(range(s, e))
    out = list(positions)
    for j in fixed:
        ch = input[j]
        lp = next((lp for t, lp in positions[j] if t == ch), 0.0)
        out[j] = [(ch, lp)]
    return out


def asm_reward(input: str, path: str, terms: set[str], mode: str = "covered") -> int:
    lengths = sorted({len(t) for t in terms})
    covered: set[int] = set()
    for s, e in occurrences(path, terms, lengths):
        if any(path[i] != input[i] for i in range(s, e)):
            covered.update(range(s, e))
    if mode == "altered":
        covered = {i for i in covered if path[i] != input[i]}
    return len(covered)


def best_total(
    input: str, positions: Positions, terms: set[str], eta=ETA, mode: str = "covered"
) -> float:
    """Exact maximum of raw + eta * reward over every path through ``positions``.

    A dynamic program whose state is the longest suffix of the path that is a
    proper prefix of some term (only it can take part in a later occurrence),
    with the altered and covered bits of that suffix. Positions that drop out
    of the suffix can never be covered again, so their reward is settled then.
    """
    if not terms or eta == 0:
        return sum(max(lp for _, lp in cands) for cands in positions)
    prefixes = {t[:i] for t in terms for i in range(1, len(t))}
    lengths = sorted({len(t) for t in terms})

    def settled(alt: tuple, cov: tuple) -> int:
        if mode == "altered":
            return sum(a and c for a, c in zip(alt, cov))
        return sum(cov)

    # state (suffix, altered bits, covered bits) -> best raw + eta * settled reward
    states: dict[tuple, float] = {("", (), ()): 0.0}
    for j, cands in enumerate(positions):
        nxt: dict[tuple, float] = {}
        in_ch = input[j]
        for (u, alt, cov), score in states.items():
            for tok, lp in cands:
                text = u + tok
                a = alt + (tok != in_ch,)
                c = list(cov) + [False]
                n = len(text)
                for ln in lengths:
                    if ln <= n and text[n - ln :] in terms and any(a[n - ln :]):
                        c[n - ln :] = [True] * ln
                keep = 0
                for ln in range(min(n, max(lengths) - 1), 0, -1):
                    if text[n - ln :] in prefixes:
                        keep = ln
                        break
                drop = n - keep
                gained = settled(a[:drop], c[:drop])
                key = (text[drop:], a[drop:], tuple(c[drop:]))
                val = score + lp + eta * gained
                old = nxt.get(key)
                if old is None or val > old:
                    nxt[key] = val
        states = nxt
    return max(score + eta * settled(alt, cov) for (_, alt, cov), score in states.items())


def brute_total(
    input: str, positions: Positions, terms: set[str], eta=ETA, mode: str = "covered"
) -> float:
    best = -math.inf
    for combo in itertools.product(*positions):
        path = "".join(t for t, _ in combo)
        raw = sum(lp for _, lp in combo)
        reward = asm_reward(input, path, terms, mode) if terms else 0
        best = max(best, raw + eta * reward)
    return best


def self_test(rounds: int = 150, seed: int = 7) -> int:
    """Compare best_total with brute-force enumeration on small random lattices.

    Covers several eta values, both reward modes and the empty dictionary.
    Returns the number of comparisons made; raises AssertionError on the first
    disagreement.
    """
    rng = random.Random(seed)
    vocab = "abcde"
    checks = 0
    for _ in range(rounds):
        n = rng.randint(1, 7)
        inp = "".join(rng.choice(vocab) for _ in range(n))
        positions = []
        for j in range(n):
            toks = rng.sample(vocab, rng.randint(1, 3))
            if rng.random() < 0.7 and inp[j] not in toks:
                toks[0] = inp[j]
            cands = sorted(
                ((t, -round(rng.uniform(0, 3), 1)) for t in toks), key=lambda p: (-p[1], p[0])
            )
            positions.append(cands)
        terms = {
            "".join(rng.choice(vocab) for _ in range(rng.randint(2, 4)))
            for _ in range(rng.randint(0, 6))
        }
        for eta in (0.0, 0.5, 4.0, 10.0):
            for mode in ("covered", "altered"):
                for dic in (terms, set()):
                    pinned = pin(inp, positions, dic, eta)
                    got = best_total(inp, pinned, dic, eta, mode)
                    want = brute_total(inp, pinned, dic, eta, mode)
                    if abs(got - want) > 1e-9:
                        raise AssertionError(
                            f"reference decoder {got} != brute force {want} on "
                            f"{inp!r} {positions} {sorted(dic)} eta={eta} mode={mode}"
                        )
                    checks += 1
    return checks


# ---- noisy-channel posterior -------------------------------------------------


@dataclass
class NgramCounts:
    counts: dict[str, dict[str, int]]
    totals: dict[str, int]
    vocab_size: int


def ngram_counts(corpus: list[str], order: int = ORDER) -> NgramCounts:
    counts: dict[str, dict[str, int]] = {}
    vocab: set[str] = set()
    for sentence in corpus:
        padded = BOS * order + sentence
        for i in range(order, len(padded)):
            row = counts.setdefault(padded[i - order : i], {})
            row[padded[i]] = row.get(padded[i], 0) + 1
            vocab.add(padded[i])
    totals = {ctx: sum(row.values()) for ctx, row in counts.items()}
    return NgramCounts(counts, totals, len(vocab))


def posterior(
    sentence: str, j: int, confusions: set[str], lm: NgramCounts, order: int = ORDER
) -> dict[str, float]:
    """Normalized log posterior over the observed character and its confusions."""
    obs = sentence[j]
    ctx = (BOS * order + sentence[:j])[-order:]
    row = lm.counts.get(ctx, {})
    total = lm.totals.get(ctx, 0)
    denom = total + ALPHA * max(1, lm.vocab_size)
    others = sorted(confusions - {obs})
    scores = {}
    for c in [obs] + others:
        if c == obs:
            p_ch = P_KEEP if others else 1.0
        else:
            p_ch = (1.0 - P_KEEP) / len(others)
        scores[c] = math.log((row.get(c, 0) + ALPHA) / denom) + math.log(p_ch)
    m = max(scores.values())
    norm = m + math.log(sum(math.exp(v - m) for v in scores.values()))
    return {c: min(v - norm, 0.0) for c, v in scores.items()}


# ---- sentence-level metrics ---------------------------------------------------


def prf(records: list[tuple[str, str, str]], level: str) -> dict[str, float]:
    """Sentence-level accuracy, precision, recall, F1 (position-exact detection).

    records are (input, gold, pred). A sentence is flagged when pred differs
    from input; a flagged erroneous sentence is a hit when pred equals gold
    (correction) or changes exactly the gold-changed positions (detection).
    """
    n = flagged = erroneous = tp = clean = 0
    for inp, gold, pred in records:
        n += 1
        f = pred != inp
        e = gold != inp
        flagged += f
        erroneous += e
        clean += (not f) and (not e)
        if f and e:
            if level == "correction":
                tp += pred == gold
            else:
                diff = lambda x: {i for i in range(len(inp)) if x[i] != inp[i]}  # noqa: E731
                tp += diff(pred) == diff(gold)

    def div(a, b):
        return a / b if b else 0.0

    pre, rec = div(tp, flagged), div(tp, erroneous)
    return {"acc": div(tp + clean, n), "pre": pre, "rec": rec, "f1": div(2 * pre * rec, pre + rec)}
