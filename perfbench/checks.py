"""Output checks for each udspell command, made apart from the program.

Each check reads a command's output file as a user would and compares it with
properties of the method or with :mod:`reference` computations over the
benchmark's own inputs (:class:`workloads.Inputs`). A check returns the set
of record indices that failed plus messages; a failure of a whole-file
property fails every record of the command.
"""
from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field

import reference as ref
from workloads import BEAM_SIZE, Inputs

ERROR_TYPES = ("pronunciation", "shape", "random", "unchanged")
MIN_COUNT = 5  # build-confusion default
MAX_RATIO = 0.15  # gen-corpus default
TOL = 1e-6


@dataclass
class Result:
    records: int
    failed: set[int] = field(default_factory=set)
    messages: list[str] = field(default_factory=list)

    def fail(self, idx: int | None, msg: str) -> None:
        if idx is None:
            self.failed.update(range(self.records))
        else:
            self.failed.add(idx)
        if len(self.messages) < 5:
            self.messages.append(msg)


def _confusable(x: str, y: str, inputs: Inputs) -> bool:
    return (
        x == y
        or y in inputs.phonetic.get(x, ())
        or x in inputs.phonetic.get(y, ())
        or bool(inputs.keys(x) & inputs.keys(y))
    )


def parse_ngram(text: str) -> dict[str, set[str]]:
    out = {}
    for line in text.splitlines():
        frag, cands = line.split("\t")
        out[frag] = set(cands.split(","))
    return out


def check_build_confusion(text: str, inputs: Inputs) -> Result:
    res = Result(len(inputs.corpus))
    try:
        entries = parse_ngram(text)
    except ValueError as e:
        res.fail(None, f"unparseable fragment file: {e}")
        return res
    grams: Counter[str] = Counter()
    for s in inputs.corpus:
        for ln in (2, 3, 4):
            for i in range(len(s) - ln + 1):
                grams[s[i : i + ln]] += 1
    for a, cands in entries.items():
        if grams[a] < MIN_COUNT:
            res.fail(None, f"fragment {a!r} occurs {grams[a]} < {MIN_COUNT} times")
        for b in cands:
            if len(a) != len(b) or not 2 <= len(a) <= 4 or a == b:
                res.fail(None, f"bad pair {a!r}/{b!r}")
            elif a not in entries.get(b, ()):
                res.fail(None, f"asymmetric pair {a!r}/{b!r}")
            elif not all(_confusable(x, y, inputs) for x, y in zip(a, b)):
                res.fail(None, f"pair {a!r}/{b!r} not confusable position by position")
    return res


def check_train_scorer(text: str, inputs: Inputs, lm: ref.NgramCounts) -> Result:
    res = Result(len(inputs.corpus))
    lines = text.splitlines()
    header = lines[0].split("\t")
    if header[:3] != ["#udspell-ngram", "1", str(ref.ORDER)] or float(header[3]) != ref.ALPHA:
        res.fail(None, f"unexpected model header {header}")
    if len(lines[1].split("\t")[1]) != lm.vocab_size:
        res.fail(None, "vocabulary size differs from the corpus")
    got: dict[str, dict[str, int]] = {}
    for line in lines[2:]:
        ctx, ch, c = line.split("\t")
        got.setdefault(ctx, {})[ch] = int(c)
    if got != lm.counts:
        res.fail(None, "n-gram counts differ from the benchmark's own counts")
    return res


@dataclass
class GenRecord:
    source: str
    target: str
    error_type: str
    edits: list[tuple[int, str, str]]


def parse_gen(text: str) -> tuple[list[GenRecord], dict[str, int]]:
    records, summary = [], {}
    for line in text.splitlines():
        if line.startswith("#"):
            for item in line[1:].split():
                k, v = item.split("=")
                summary[k] = int(v)
            continue
        source, target, etype, spec = line.split("\t")
        edits = []
        for e in filter(None, spec.split(";")):
            pos, rest = e.split(":", 1)
            orig, repl = rest.split(">")
            edits.append((int(pos), orig, repl))
        records.append(GenRecord(source, target, etype, edits))
    return records, summary


def check_gen_corpus(text: str, inputs: Inputs, ngram: dict[str, set[str]]) -> Result:
    corpus = inputs.corpus
    res = Result(len(corpus))
    try:
        records, summary = parse_gen(text)
    except ValueError as e:
        res.fail(None, f"unparseable corpus: {e}")
        return res
    if len(records) != len(corpus):
        res.fail(None, f"{len(records)} records for {len(corpus)} sentences")
        return res
    inventory = set(inputs.phonetic) | set(inputs.shape)
    for v in list(inputs.phonetic.values()) + list(inputs.shape.values()):
        inventory |= v
    types: Counter[str] = Counter()
    for i, (rec, sentence) in enumerate(zip(records, corpus)):
        types[rec.error_type] += 1
        if rec.target != sentence or len(rec.source) != len(sentence):
            res.fail(i, f"record {i}: target differs from its input sentence")
            continue
        if rec.error_type not in ERROR_TYPES:
            res.fail(i, f"record {i}: unknown error type {rec.error_type!r}")
            continue
        changed = sum(a != b for a, b in zip(rec.source, rec.target))
        if changed > math.floor(MAX_RATIO * len(sentence)):
            res.fail(i, f"record {i}: {changed} changed characters exceed the budget")
        if (rec.error_type == "unchanged") != (not rec.edits):
            res.fail(i, f"record {i}: edits do not match type {rec.error_type}")
        rebuilt = list(rec.target)
        for pos, orig, repl in rec.edits:
            if sentence[pos : pos + len(orig)] != orig or len(repl) != len(orig):
                res.fail(i, f"record {i}: edit {pos}:{orig}>{repl} does not fit the sentence")
                break
            rebuilt[pos : pos + len(repl)] = repl
            if len(orig) > 1:
                ok = rec.error_type == "pronunciation" and repl in ngram.get(orig, ())
            elif rec.error_type == "pronunciation":
                ok = repl in inputs.phonetic.get(orig, ())
            elif rec.error_type == "shape":
                ok = repl in inputs.shape.get(orig, ())
            else:
                ok = repl != orig and repl in inventory
            if not ok:
                res.fail(i, f"record {i}: edit {orig}>{repl} not explained by {rec.error_type}")
        if "".join(rebuilt) != rec.source:
            res.fail(i, f"record {i}: edits do not turn the target into the source")
    want = {"records": len(records), "edits": sum(len(r.edits) for r in records)}
    want.update({f"type.{t}": types[t] for t in ERROR_TYPES})
    if any(summary.get(k) != v for k, v in want.items()):
        res.fail(None, f"summary {summary} disagrees with the records")
    return res


def lattice_positions(obj: dict) -> ref.Positions:
    return [[(c["t"], c["lp"]) for c in pos] for pos in obj["positions"]]


def check_score(
    lines: list[str], sources: list[str], inputs: Inputs, lm: ref.NgramCounts, seed: int
) -> Result:
    res = Result(len(sources))
    if len(lines) != len(sources):
        res.fail(None, f"{len(lines)} lattices for {len(sources)} sentences")
        return res
    rng = random.Random(f"score-sample:{seed}")
    per_record = max(1, 400 // len(sources))
    for i, (line, sentence) in enumerate(zip(lines, sources)):
        obj = json.loads(line)
        if obj["id"] != str(i) or obj["input"] != sentence:
            res.fail(i, f"record {i}: id or input mismatch")
            continue
        positions = lattice_positions(obj)
        if len(positions) != len(sentence):
            res.fail(i, f"record {i}: {len(positions)} positions for {len(sentence)} chars")
            continue
        for j, cands in enumerate(positions):
            obs = sentence[j]
            allowed = inputs.confusions(obs) | {obs}
            toks = [t for t, _ in cands]
            if (
                not toks
                or len(set(toks)) != len(toks)
                or not set(toks) <= allowed
                or any(lp > 0 for _, lp in cands)
                or cands != sorted(cands, key=lambda p: (-p[1], p[0]))
            ):
                res.fail(i, f"record {i} pos {j}: bad candidates {cands}")
                break
            if len(cands) == len(allowed):
                total = math.fsum(math.exp(lp) for _, lp in cands)
                if abs(total - 1.0) > TOL:
                    res.fail(i, f"record {i} pos {j}: probabilities sum to {total}")
                    break
        else:
            for j in rng.sample(range(len(sentence)), min(per_record, len(sentence))):
                post = ref.posterior(sentence, j, inputs.confusions(sentence[j]), lm)
                cands = positions[j]
                kept = {t for t, _ in cands}
                dropped = [lp for t, lp in post.items() if t not in kept]
                if (
                    len(cands) != min(ref.TOPK, len(post))
                    or any(abs(post[t] - lp) > 1e-9 for t, lp in cands)
                    or (dropped and max(dropped) > min(lp for _, lp in cands) + 1e-12)
                ):
                    res.fail(i, f"record {i} pos {j}: {cands} differs from posterior {post}")
                    break
    return res


def check_ideal_dict(text: str, targets: list[str]) -> Result:
    res = Result(len(targets))
    terms = text.splitlines()
    if terms != sorted(set(terms)):
        res.fail(None, "dictionary terms not sorted and unique")
    joined = "\n".join(targets)
    for t in terms:
        if len(t) < 2 or t not in joined:
            res.fail(None, f"term {t!r} is not a gold-side phrase")
    return res


@dataclass
class DecodeStats:
    exact: int = 0
    decoded: int = 0
    worst_gap: float = 0.0


def effective_positions(input: str, positions: ref.Positions, terms: set[str]) -> ref.Positions:
    return ref.pin(input, ref.prune(positions), terms)


def check_decode(
    out_lines: list[str], lattices: list[dict], terms: set[str], stats: DecodeStats
) -> Result:
    """Soundness checks per record; optimality is counted in ``stats``.

    A lattice with at most BEAM_SIZE paths after pruning and pinning fails
    when its total is below the reference maximum: the beam cannot cut it, so
    a shortfall is a search fault. On larger lattices the shortfall is only
    counted, because how many the beam cuts short depends on the seed.
    """
    res = Result(len(lattices))
    if len(out_lines) != len(lattices):
        res.fail(None, f"{len(out_lines)} outputs for {len(lattices)} lattices")
        return res
    for i, (line, lat) in enumerate(zip(out_lines, lattices)):
        out = json.loads(line)
        inp = lat["input"]
        path = out["output"]
        if out["id"] != lat["id"] or len(path) != len(inp):
            res.fail(i, f"record {i}: id or length mismatch")
            continue
        eff = effective_positions(inp, lattice_positions(lat), terms)
        raw = 0.0
        for tok, cands in zip(path, eff):
            lp = next((lp for t, lp in cands if t == tok), None)
            if lp is None:
                res.fail(i, f"record {i}: token {tok!r} is neither a kept candidate nor pinned")
                break
            raw += lp
        else:
            reward = ref.asm_reward(inp, path, terms)
            total = raw + ref.ETA * reward
            edits = [(e["pos"], e["orig"], e["repl"]) for e in out["edits"]]
            want_edits = [(k, a, b) for k, (a, b) in enumerate(zip(inp, path)) if a != b]
            if (
                abs(out["raw_score"] - raw) > TOL
                or out["dict_score"] != reward
                or abs(out["total"] - total) > TOL
                or edits != want_edits
            ):
                res.fail(i, f"record {i}: reported scores {out} differ from rescoring")
                continue
            best = ref.best_total(inp, eff, terms)
            if total > best + TOL:
                res.fail(i, f"record {i}: total {total} above the reference maximum {best}")
                continue
            stats.decoded += 1
            if total >= best - TOL:
                stats.exact += 1
            elif math.prod(map(len, eff)) <= BEAM_SIZE:
                res.fail(i, f"record {i}: total {total} below the reference maximum {best} "
                            f"on a lattice the beam cannot cut")
            stats.worst_gap = max(stats.worst_gap, best - total)
    return res


def overflowing_path_count(lattices: list[dict]) -> bool:
    """True if the corpus-average post-prune path count exceeds a float.

    This is the condition under which ``decode_corpus`` raises OverflowError.
    """
    total = 0
    for lat in lattices:
        count = 1
        for cands in ref.prune(lattice_positions(lat)):
            count *= len(cands)
        total += count
    return total // max(1, len(lattices)) > int(1.7976931348623157e308)


def check_eval(stdout: str, records: list[tuple[str, str, str]]) -> Result:
    res = Result(len(records))
    try:
        reports = {r["level"]: r for r in json.loads(stdout)}
    except (ValueError, KeyError, TypeError) as e:
        res.fail(None, f"unparseable eval output: {e}")
        return res
    for level in ("detection", "correction"):
        want = ref.prf(records, level)
        got = reports.get(level, {})
        if not all(abs(got.get(k, math.nan) - v) <= 1e-12 for k, v in want.items()):
            res.fail(None, f"{level}: {got} differs from reference {want}")
    return res
