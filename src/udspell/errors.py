"""Exception hierarchy shared across the toolkit, and its two shared rules:
:func:`table_rows`, the one row reader of its tab-separated tables (the
character and fragment confusion sets, the pinyin table, evaluation records
and datasets), and :func:`diff_runs`, the one answer to where two sentences
differ (decode's edits, evaluation, dataset statistics, ideal dictionaries)."""
from typing import Iterable


class UdspellError(Exception):
    """Base class for all toolkit errors."""


class LatticeError(UdspellError):
    """Malformed lattice record or violated lattice contract."""


class PinyinError(UdspellError):
    """Unparseable pinyin syllable or table entry."""


class ConfusionError(UdspellError):
    """Bad confusion-set input or query."""


class EcmError(UdspellError):
    """Corruption pipeline failure."""


class DictionaryError(UdspellError):
    """Dictionary loading or matching contract violation."""


class DecodeError(UdspellError):
    """Decoder contract violation."""


class EvalError(UdspellError):
    """Evaluation input failure."""


class ScorerError(UdspellError):
    """Scorer training or scoring failure."""


def table_rows(lines: Iterable[str], fields: int, error: type[UdspellError], what: str):
    """Yield ``(line number, fields)`` for each row of a tab-separated table.

    Lines are numbered as in the file. The newline is stripped, blank and
    ``#`` lines are skipped, and a row without exactly ``fields``
    tab-separated fields raises ``error`` with its line number.
    """
    for ln, line in enumerate(lines, 1):
        line = line.rstrip("\n")
        if not line.strip() or line[0] == "#":  # indexing: cheaper per row than startswith
            continue
        parts = line.split("\t")
        if len(parts) != fields:
            raise error(f"line {ln}: bad {what} {line!r}: expected {fields} tab-separated fields")
        yield ln, parts


def diff_runs(source: str, target: str) -> list[tuple[int, int]]:
    """The maximal ``(start, end)`` runs, end exclusive and in order, where two
    equal-length strings differ. Callers check the lengths."""
    runs = []
    i, n = 0, len(source)
    while i < n:
        if source[i] != target[i]:
            j = i + 1
            while j < n and source[j] != target[j]:
                j += 1
            runs.append((i, j))
            i = j
        i += 1
    return runs
