"""Build confusion sets from a clean corpus, then corrupt it consistently.

The corruption pipeline mirrors how people actually misspell: mostly
pronunciation slips (including multi-character phrases that sound alike),
some shape confusions, a little noise, and a fifth of sentences left
clean. Error positions always come from confusion sets, never uniform
randomness, so a speller trained on the output sees realistic mistakes.

Run:  python3 demos/02_ecm_corpus.py
"""
from collections import Counter

from udspell import EcmConfig, build_ngram_confusion, generate_corpus
from udspell.confusion import default_char_confusion
from udspell.pinyin import default_table

CORPUS = [
    "人民检察院依法审查案件",
    "一年一年过去了",
    "心中的意念没有变",
    "四类案件在室内审查",
    "报告需要按时提交",
    "案件审查需要一年时间",
] * 5


def main():
    pinyin = default_table()
    chars = default_char_confusion()

    print("building fragment confusion sets from the corpus ...")
    ngrams = build_ngram_confusion(CORPUS, pinyin, min_count=2)
    print(f"  {len(ngrams)} fragments paired, e.g.:")
    for frag in sorted(ngrams)[:4]:
        print(f"    {frag} <-> {', '.join(sorted(ngrams[frag]))}")
    print()

    cfg = EcmConfig(seed=2024)
    records = list(generate_corpus(CORPUS, chars, ngrams, cfg))

    types = Counter(r.error_type for r in records)
    print(f"corrupted {len(records)} sentences; error-type mix: {dict(types)}\n")

    shown = 0
    for rec in records:
        if rec.source == rec.target or shown >= 5:
            continue
        marks = "".join("^" if a != b else "　" for a, b in zip(rec.source, rec.target))
        print(f"  clean:     {rec.target}")
        print(f"  corrupted: {rec.source}  [{rec.error_type}]")
        print(f"             {marks}")
        shown += 1

    # reruns with the same seed are byte-identical
    again = list(generate_corpus(CORPUS, chars, ngrams, cfg))
    print(f"\nrerun with seed {cfg.seed} identical: {again == records}")


if __name__ == "__main__":
    main()
