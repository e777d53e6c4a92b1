"""End-to-end pipeline: train a scorer, corrupt text, decode, evaluate.

The n-gram noisy-channel scorer stands in for a neural speller so the
whole loop runs in a couple of seconds with no model downloads. The
interesting comparison is the same lattices decoded with and without a
user dictionary: dictionary guidance recovers domain terms the generic
scorer gets wrong.

Run:  python3 demos/03_end_to_end.py
"""
from udspell import (
    ChannelModel,
    EcmConfig,
    EvalRecord,
    UserDictionary,
    decode,
    generate_corpus,
    sentence_metrics,
    train,
)
from udspell.confusion import default_char_confusion
from udspell.scorer import score_sentence

CLEAN = [
    "人民检察院依法审查案件",
    "检察院一年审查很多案件",
    "依法审查案件需要时间",
    "案件审查报告按时提交",
    "人民检察院的审查报告",
] * 8

USER_DICT = UserDictionary({"人民检察院", "审查案件", "检察院"})


def main():
    chars = default_char_confusion()

    print(f"training character model on {len(CLEAN)} clean sentences ...")
    # a deliberately weak scorer (unigram context, conservative channel)
    # so the dictionary has room to help
    lm = train(CLEAN, order=1)
    channel = ChannelModel(confusion=chars, p_keep=0.99)

    print("corrupting the corpus ...")
    cfg = EcmConfig(p_pronunciation=0.6, p_shape=0.0, p_random=0.2, p_unchanged=0.2, seed=5)
    records = list(generate_corpus(CLEAN, chars, {}, cfg))
    n_errors = sum(r.source != r.target for r in records)
    print(f"  {n_errors}/{len(records)} sentences got errors\n")

    plain, guided = [], []
    for rec in records:
        lat = score_sentence(rec.source, lm, channel)
        plain.append(EvalRecord(rec.source, rec.target, decode(lat, UserDictionary(())).tokens))
        guided.append(EvalRecord(rec.source, rec.target, decode(lat, USER_DICT).tokens))

    print(f"{'setup':<20}{'corr-pre':>10}{'corr-rec':>10}{'corr-f1':>10}")
    for label, recs in (("no dictionary", plain), ("user dictionary", guided)):
        m = sentence_metrics(recs, level="correction")
        print(f"{label:<20}{m.pre:>10.3f}{m.rec:>10.3f}{m.f1:>10.3f}")

    print("\na corrected example:")
    for rec, g in zip(records, guided):
        if rec.source != rec.target and g.pred == rec.target:
            print(f"  corrupted: {rec.source}")
            print(f"  decoded:   {g.pred}")
            break


if __name__ == "__main__":
    main()
