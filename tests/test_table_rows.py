"""The tab-separated table formats share one row rule: blank and ``#`` lines
are skipped but still counted, and a row with the wrong number of fields is
reported with its file line."""
import pytest

from udspell.confusion import load_char_confusion, load_ngram_confusion
from udspell.errors import UdspellError
from udspell.evaluate import read_dataset, read_eval_records
from udspell.pinyin import load_pinyin_table

# loader, one good row, and the number of entries that row loads as
LOADERS = [
    (load_char_confusion, "报\tP\t抱", lambda c: len(c.phonetic)),
    (load_ngram_confusion, "一年\t意念", len),
    (load_pinyin_table, "插\tcha1", len),
    (read_eval_records, "1\t甲乙\t甲丙\t甲丙", len),
    (read_dataset, "1\t甲乙\t甲丙", len),
]
IDS = ["char-confusion", "ngram-confusion", "pinyin", "records", "dataset"]


@pytest.mark.parametrize("load, good, size", LOADERS, ids=IDS)
def test_blank_and_comment_lines_are_skipped(load, good, size):
    assert size(load(["# header", "", "  ", good, "#\tx"])) == 1


@pytest.mark.parametrize("load, good, size", LOADERS, ids=IDS)
@pytest.mark.parametrize("change", ["extra", "missing"])
def test_wrong_field_count_gives_file_line(load, good, size, change):
    bad = good + "\tx" if change == "extra" else good.rsplit("\t", 1)[0]
    with pytest.raises(UdspellError, match="^line 5: "):
        load(["# header", "", "  ", good, bad])
