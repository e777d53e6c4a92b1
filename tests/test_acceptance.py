"""End-to-end acceptance gate.

Each test exercises one release criterion and prints a single PASS/FAIL
line (visible even under pytest capture). Criteria are deliberately
stricter than the per-module suites: exact equalities, pinned tolerances
and wall-clock budgets.
"""
import math
import os
import random
import time
from collections import Counter

import pytest

from udspell.decoder import DecodeConfig, decode
from udspell.dictionary import UserDictionary
from udspell.ecm import EcmConfig, generate_corpus
from udspell.evaluate import EvalRecord, dataset_stats, read_dataset, sentence_metrics
from udspell.lattice import PruneConfig, make_lattice, prune

from conftest import NO_PRUNE, VOCAB, argmax_tokens, make_dense_confusion, random_lattice
from oracle import brute_decode
from test_decoder import fig3_lattice, med_lattice, random_dictionary

SIGHAN_ENV = "UDSPELL_SIGHAN15"


def report(capsys, num: int, ok: bool, desc: str) -> None:
    with capsys.disabled():
        print(f"\nacceptance {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def ecm_sample():
    """10,000 corruption records under the default 30/30/20/20 config."""
    chars, cc, ng = make_dense_confusion()
    rng = random.Random(99)
    sents = ["".join(rng.choice(chars) for _ in range(rng.randint(8, 30))) for _ in range(10_000)]
    cfg = EcmConfig(seed=7)
    return sents, cc, ng, cfg, list(generate_corpus(sents, cc, ng, cfg))


def test_criterion_1_oracle_equivalence(capsys):
    rng = random.Random(11)
    start = time.perf_counter()
    ok = True
    for i in range(500):
        lat = random_lattice(rng, max_n=6, max_k=3, lattice_id=str(i))
        dic = random_dictionary(rng)
        for eta in (0.0, 1.0, 4.0):
            cfg = DecodeConfig(eta=eta)
            b = decode(lat, dic, cfg)
            tokens, _, _, total = brute_decode(lat, dic, cfg)
            ok = ok and b.total == total and b.tokens == tokens
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report(capsys, 1, ok, f"decode == oracle on 500 lattices x 3 etas in {elapsed:.2f}s")


def test_criterion_2_degeneracy(capsys):
    rng = random.Random(22)
    empty = UserDictionary(())
    cfg_empty = DecodeConfig(prune=NO_PRUNE)
    cfg_eta0 = DecodeConfig(eta=0.0, prune=NO_PRUNE)
    ok = True
    for i in range(1000):
        lat = random_lattice(rng, lattice_id=str(i))
        want = argmax_tokens(lat)
        ok = ok and decode(lat, empty, cfg_empty).tokens == want
        ok = ok and decode(lat, random_dictionary(rng), cfg_eta0).tokens == want
    report(capsys, 2, ok, "empty-dict and eta=0 decodes equal per-position argmax on 1000 lattices")


def test_criterion_3_pruning_semantics(capsys):
    rng = random.Random(33)
    cfg = PruneConfig()
    ok = True
    for i in range(1000):
        lat = random_lattice(rng, max_n=8, max_k=4, lattice_id=str(i))
        pruned = prune(lat, cfg)
        for orig, kept in zip(lat.positions, pruned.positions):
            confident = [c for c in orig if c[1] > cfg.max_logp]
            if confident:
                ok = ok and list(kept) == [orig[0]]
            for c in kept:
                if c[1] < cfg.min_logp:
                    ok = ok and len(kept) == 1
        again = prune(pruned, cfg)
        ok = ok and again.positions == pruned.positions
    report(capsys, 3, ok, "fix/discard/survivor rules and idempotence hold on 1000 lattices")


def test_criterion_4_fixture_flips(capsys):
    legal_dic = UserDictionary({"人民检察院", "审查案件"})
    med_dic = UserDictionary({"甲苯咪唑", "剂量"})
    empty = UserDictionary(())
    ok = (
        decode(fig3_lattice(), legal_dic).tokens == "人民检察院依法审查案件"
        and decode(fig3_lattice(), empty).tokens == "人民监查员依法审查案件"
        and decode(med_lattice(), med_dic).tokens == "患者需要按照剂量服用甲苯咪唑片"
        and decode(med_lattice(), empty).tokens == "患者需要按照计量服用甲苯米坐片"
    )
    report(capsys, 4, ok, "legal and medical fixtures flip with the dictionary, revert without")


def test_criterion_5_ecm_distribution(capsys, ecm_sample):
    sents, cc, ng, cfg, records = ecm_sample
    n = len(records)
    freq = Counter(r.error_type for r in records)
    ok = (
        abs(freq["pronunciation"] / n - 0.30) <= 0.02
        and abs(freq["shape"] / n - 0.30) <= 0.02
        and abs(freq["random"] / n - 0.20) <= 0.02
        and abs(freq["unchanged"] / n - 0.20) <= 0.02
    )
    for rec in records:
        budget = math.floor(0.15 * len(rec.source))
        ok = ok and sum(len(e.orig) for e in rec.edits) <= budget
        if rec.error_type != "pronunciation":
            ok = ok and all(len(e.orig) == 1 for e in rec.edits)
    rerun = list(generate_corpus(sents, cc, ng, cfg))
    ok = ok and rerun == records
    report(capsys, 5, ok, "10k records: type mix within 2pp, budget kept, rerun byte-identical")


def test_criterion_6_confusion_soundness(capsys, ecm_sample):
    _, cc, ng, _, records = ecm_sample
    checked = bad = 0
    for rec in records:
        if rec.error_type != "pronunciation":
            continue
        for e in rec.edits:
            checked += 1
            if len(e.orig) == 1:
                bad += e.repl not in cc.phonetic.get(e.orig, set())
            else:
                bad += e.repl not in ng.get(e.orig, set())
    ok = checked > 0 and bad == 0
    report(capsys, 6, ok, f"all {checked} pronunciation replacements found in their confusion sets")


METRICS_FIXTURE = [
    # three erroneous sentences, all flagged at the right position,
    # two fully corrected; one clean sentence falsely flagged; two clean kept
    EvalRecord("甲乙丙", "甲丁丙", "甲丁丙"),
    EvalRecord("乙丙丁", "乙戊丁", "乙戊丁"),
    EvalRecord("丙丁甲", "丙戊甲", "丙己甲"),
    EvalRecord("丁甲乙", "丁甲乙", "丁戊乙"),
    EvalRecord("甲甲乙", "甲甲乙", "甲甲乙"),
    EvalRecord("乙乙丙", "乙乙丙", "乙乙丙"),
]


def test_criterion_7_metrics(capsys):
    det = sentence_metrics(METRICS_FIXTURE, level="detection")
    cor = sentence_metrics(METRICS_FIXTURE, level="correction")
    ok = (
        det.pre == 0.75
        and det.rec == 1.0
        and abs(det.f1 - 6 / 7) < 1e-12
        and cor.pre == 0.5
        and abs(cor.rec - 2 / 3) < 1e-12
        and abs(cor.f1 - 4 / 7) < 1e-12
    )
    perfect = [EvalRecord(r.input, r.gold, r.gold) for r in METRICS_FIXTURE]
    for level in ("detection", "correction"):
        m = sentence_metrics(perfect, level=level)
        ok = ok and (m.acc, m.pre, m.rec, m.f1) == (1.0, 1.0, 1.0, 1.0)
    rng = random.Random(77)
    for _ in range(1000):
        recs = []
        for _ in range(rng.randint(1, 6)):
            inp = "".join(rng.choice("甲乙丙丁") for _ in range(4))
            mut = lambda s: "".join(
                c if rng.random() < 0.7 else rng.choice("甲乙丙丁") for c in s
            )
            recs.append(EvalRecord(inp, mut(inp), mut(inp)))
        d = sentence_metrics(recs, level="detection")
        c = sentence_metrics(recs, level="correction")
        ok = ok and c.f1 <= d.f1 + 1e-12
    report(capsys, 7, ok, "hand fixture exact (det F1=6/7, corr F1=4/7); corr F1 never beats det F1")


def test_criterion_8_dataset_stats(capsys):
    synthetic = [
        ("甲乙丙", "甲乙丙"),
        ("甲乙丙丁", "甲戊丙丁"),
        ("甲乙丙丁戊", "甲戊己丁戊"),
    ]
    s = dataset_stats(synthetic)
    ok = (
        s.total == 3
        and s.error_sents == 2
        and s.avg_len == 4.0
        and s.continuous_error_sents == 1
    )
    note = "synthetic stats exact"
    path = os.environ.get(SIGHAN_ENV)
    if path:
        with open(path, encoding="utf-8") as fh:
            ref = dataset_stats(read_dataset(fh))
        ok = ok and ref.total == 1100 and ref.error_sents == 542
        ok = ok and abs(ref.avg_len - 30.7) <= 0.1
        note += f"; benchmark file reproduced 542/1100 avg~30.7"
    else:
        note += f" (set {SIGHAN_ENV} to also verify the public benchmark file)"
    report(capsys, 8, ok, note)


def test_criterion_9_throughput(capsys):
    rng = random.Random(88)
    terms = {
        "".join(rng.choice(VOCAB) for _ in range(rng.randint(2, 4))) for _ in range(12_000)
    }
    dic = UserDictionary(set(list(terms)[:10_000]))
    lats = []
    for i in range(1000):
        n = 128
        chars = [rng.choice(VOCAB) for _ in range(n)]
        positions = []
        for j in range(n):
            if rng.random() < 0.9:
                positions.append([(chars[j], -0.01)])
            else:
                toks = rng.sample(VOCAB, 5)
                toks[0] = chars[j]
                lps = sorted((rng.uniform(-10, -0.01) for _ in range(5)), reverse=True)
                positions.append(list(zip(dict.fromkeys(toks), lps)))
        lats.append(make_lattice(str(i), "".join(chars), positions))
    start = time.perf_counter()
    for lat in lats:
        decode(lat, dic)
    elapsed = time.perf_counter() - start
    ok = elapsed < 5.0
    report(
        capsys, 9, ok, f"1000 x 128-char decode with {len(dic)}-term dictionary in {elapsed:.2f}s"
    )


def test_criterion_10_nonreproducible_statement(capsys):
    statement = (
        "not reproduced here: published neural-speller benchmark F1 scores, "
        "official-tool leaderboard numbers, domain-adaptation gains, per-model "
        "average path counts and dictionary-size upper-bound curves; all need "
        "the pretrained neural speller and annotated domain data. Covered "
        "instead by criteria 1-9 and the per-module invariant suites."
    )
    report(capsys, 10, True, statement)
