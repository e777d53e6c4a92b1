"""Sentence-level spelling-check metrics and dataset statistics.

Both metric styles judge whole sentences. In the stricter style a detection
hit requires the system to flag exactly the gold error positions; the
official-tool style counts any flagged erroneous sentence as detected.
Correction hits require the full output to equal the gold sentence under
both styles. Perplexity is deliberately not computed (it would need an
external language model).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable

from .errors import EvalError, diff_runs, table_rows

STYLES = ("faspell", "official")
LEVELS = ("detection", "correction")


@dataclass(frozen=True)
class EvalRecord:
    input: str
    gold: str
    pred: str

    def __post_init__(self) -> None:
        if not (len(self.input) == len(self.gold) == len(self.pred)):
            raise EvalError(
                f"record length mismatch: input={self.input!r} gold={self.gold!r} "
                f"pred={self.pred!r}"
            )


@dataclass(frozen=True)
class MetricsReport:
    level: str
    style: str
    acc: float
    pre: float
    rec: float
    f1: float


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def sentence_metrics(
    records: Iterable[EvalRecord], style: str = "faspell", level: str = "correction"
) -> MetricsReport:
    """Accuracy/precision/recall/F1 over whole sentences at one level."""
    if style not in STYLES:
        raise EvalError(f"unknown metrics style {style!r}")
    if level not in LEVELS:
        raise EvalError(f"unknown metrics level {level!r}")

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
            hit = diff_runs(rec.pred, rec.input) == diff_runs(rec.gold, rec.input)
        tp += int(hit)

    pre = _safe_div(tp, flagged)
    rec_ = _safe_div(tp, with_errors)
    return MetricsReport(
        level=level,
        style=style,
        acc=_safe_div(tp + clean_untouched, n),
        pre=pre,
        rec=rec_,
        f1=_safe_div(2 * pre * rec_, pre + rec_),
    )


def all_metrics(records: Iterable[EvalRecord], style: str = "faspell") -> list[MetricsReport]:
    records = list(records)
    return [sentence_metrics(records, style=style, level=lv) for lv in LEVELS]


@dataclass(frozen=True)
class DatasetStats:
    total: int
    error_sents: int
    min_len: int | None
    max_len: int | None
    avg_len: float | None
    continuous_error_sents: int


def dataset_stats(pairs: Iterable[tuple[str, str]]) -> DatasetStats:
    """Error-sentence counts and length statistics of (source, target) pairs."""
    total = errors = continuous = 0
    lengths: list[int] = []
    for source, target in pairs:
        if len(source) != len(target):
            raise EvalError(f"pair length mismatch: {source!r} / {target!r}")
        total += 1
        lengths.append(len(source))
        if source != target:
            errors += 1
            continuous += any(e - s >= 2 for s, e in diff_runs(source, target))
    if not lengths:
        return DatasetStats(0, 0, None, None, None, 0)
    return DatasetStats(
        total=total,
        error_sents=errors,
        min_len=min(lengths),
        max_len=max(lengths),
        avg_len=sum(lengths) / total,
        continuous_error_sents=continuous,
    )


def read_eval_records(stream: Iterable[str] | IO[str]) -> list[EvalRecord]:
    """TSV ``id<TAB>input<TAB>gold<TAB>pred`` lines."""
    records = []
    for ln, (_, inp, gold, pred) in table_rows(stream, 4, EvalError, "record"):
        try:
            records.append(EvalRecord(input=inp, gold=gold, pred=pred))
        except EvalError as e:
            raise EvalError(f"line {ln}: {e}") from e
    return records


def read_dataset(stream: Iterable[str] | IO[str]) -> list[tuple[str, str]]:
    """TSV ``id<TAB>source<TAB>target`` lines into (source, target) pairs."""
    pairs = []
    for ln, (_, source, target) in table_rows(stream, 3, EvalError, "dataset row"):
        if len(source) != len(target):
            raise EvalError(f"line {ln}: source and target lengths differ: {source!r} / {target!r}")
        pairs.append((source, target))
    return pairs
