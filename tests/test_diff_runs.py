"""diff_runs, the toolkit's one rule for where two sentences differ, and the
evaluation figures that read it, checked against the per-position helpers
they replaced."""
from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from udspell.errors import diff_runs
from udspell.evaluate import LEVELS, STYLES, EvalRecord, dataset_stats, sentence_metrics


@st.composite
def same_length(draw, count):
    """``count`` strings of one length over a 3-character alphabet, so that
    runs of differing characters are common."""
    n = draw(st.integers(0, 12))
    return [draw(st.text("甲乙丙", min_size=n, max_size=n)) for _ in range(count)]


@settings(max_examples=500, deadline=None)
@given(same_length(2))
def test_runs_are_sorted_disjoint_maximal_and_cover_the_differences(pair):
    a, b = pair
    runs = diff_runs(a, b)
    covered = [i for s, e in runs for i in range(s, e)]
    assert covered == [i for i in range(len(a)) if a[i] != b[i]]
    for s, e in runs:
        assert 0 <= s < e <= len(a)
        assert s == 0 or a[s - 1] == b[s - 1]  # not extendable to the left
        assert e == len(a) or a[e] == b[e]  # nor to the right
    for (_, e), (s, _) in zip(runs, runs[1:]):
        assert e < s


# The helpers diff_runs replaced, verbatim, as oracles.
def _diff_positions(a: str, b: str) -> frozenset[int]:
    return frozenset(i for i in range(len(a)) if a[i] != b[i])


def _has_continuous_error(source: str, target: str) -> bool:
    run = 0
    for a, b in zip(source, target):
        run = run + 1 if a != b else 0
        if run >= 2:
            return True
    return False


def reference_metrics(records, style, level):
    """sentence_metrics as it read with _diff_positions."""
    n = flagged = with_errors = tp = clean_untouched = 0
    for rec in records:
        n += 1
        is_flagged = rec.pred != rec.input
        has_err = rec.gold != rec.input
        flagged += int(is_flagged)
        with_errors += int(has_err)
        clean_untouched += int(not is_flagged and not has_err)
        if not (is_flagged and has_err):
            continue
        if level == "correction":
            hit = rec.pred == rec.gold
        elif style == "official":
            hit = True
        else:
            hit = _diff_positions(rec.pred, rec.input) == _diff_positions(rec.gold, rec.input)
        tp += int(hit)

    def div(num, den):
        return num / den if den else 0.0

    pre, rec_ = div(tp, flagged), div(tp, with_errors)
    return dict(level=level, style=style, acc=div(tp + clean_untouched, n), pre=pre, rec=rec_,
                f1=div(2 * pre * rec_, pre + rec_))


@settings(max_examples=300, deadline=None)
@given(st.lists(same_length(3), max_size=8))
def test_sentence_metrics_match_position_sets(triples):
    records = [EvalRecord(*t) for t in triples]
    for style in STYLES:
        for level in LEVELS:
            got = asdict(sentence_metrics(records, style=style, level=level))
            assert got == reference_metrics(records, style, level)


@settings(max_examples=300, deadline=None)
@given(st.lists(same_length(2), max_size=8))
def test_dataset_stats_continuous_count_matches(pairs):
    stats = dataset_stats(pairs)
    assert stats.continuous_error_sents == sum(_has_continuous_error(s, t) for s, t in pairs)
    assert type(stats.continuous_error_sents) is int
