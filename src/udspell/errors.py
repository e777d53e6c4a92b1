"""Exception hierarchy shared across the toolkit, and :func:`table_rows`, the
one row reader of its tab-separated tables: the character and fragment
confusion sets, the pinyin table, evaluation records and datasets."""
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
