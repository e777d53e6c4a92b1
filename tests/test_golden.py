"""Byte-exact golden outputs of the CLI on small fixed inputs.

The inputs and the expected outputs live in ``tests/golden/``. The pinned
outputs are the ``score`` lattice JSONL, the ``decode`` JSONL and its stderr
summary, two ``gen-corpus`` ECM corpora, one ``build-confusion`` fragment
set and one ``ideal-dict`` dictionary. The first corpus comes from the short
sentences with no fragment file, the second from the inputs in
``tests/golden/ecm/`` (sentences of 14+ characters, a fragment file) and
runs every kind of edit; ``gen-corpus`` ignores the ``--pinyin`` it is
given. The fragment set is built from the same ``tests/golden/ecm/`` corpus
and its pinyin table with polyphones, with a cutoff low enough that
fragments pair. The dictionary samples half of the
error phrases of ``tests/golden/dataset.tsv``, the source/target pairs of
the second corpus, so the seeded sample decides which terms it holds. A
change that alters any of them changes what users get from the same inputs,
so it has to be deliberate: regenerate with
``PYTHONPATH=src python3 tests/test_golden.py`` and review the diff.
"""
import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from udspell.cli import main

GOLDEN = Path(__file__).parent / "golden"
EXPECTED = GOLDEN / "expected"
ECM = GOLDEN / "ecm"
NAMES = (
    "lattice.jsonl",
    "decode.jsonl",
    "decode.stderr",
    "ecm.tsv",
    "ecm_fragments.tsv",
    "build_confusion.tsv",
    "ideal_dict.txt",
)


def _run(*argv: str) -> tuple[str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    assert code == 0, err.getvalue()
    return out.getvalue(), err.getvalue()


def produce(workdir: Path) -> dict[str, str]:
    """Run train-scorer, score, decode, gen-corpus, build-confusion and
    ideal-dict on the golden inputs."""
    model = workdir / "model.tsv"
    _run("train-scorer", "--corpus", str(GOLDEN / "corpus.txt"), "--out", str(model))
    lattices, _ = _run(
        "score",
        "--model", str(model),
        "--char-confusion", str(GOLDEN / "chars.tsv"),
        "--input", str(GOLDEN / "noisy.txt"),
        "--p-keep", "0.9",
    )
    lattice_file = workdir / "lattice.jsonl"
    lattice_file.write_text(lattices, encoding="utf-8")
    decoded, summary = _run(
        "decode", "--lattice", str(lattice_file), "--dict", str(GOLDEN / "dict.txt")
    )
    corpus, _ = _run(
        "gen-corpus",
        "--corpus", str(GOLDEN / "corpus.txt"),
        "--char-confusion", str(GOLDEN / "chars.tsv"),
        "--seed", "3",
    )
    fragment_corpus, _ = _run(
        "gen-corpus",
        "--corpus", str(ECM / "corpus.txt"),
        "--char-confusion", str(ECM / "chars.tsv"),
        "--pinyin", str(ECM / "pinyin.tsv"),
        "--ngram-confusion", str(ECM / "fragments.tsv"),
        "--seed", "10",
    )
    fragments, _ = _run(
        "build-confusion",
        "--corpus", str(ECM / "corpus.txt"),
        "--char-confusion", str(ECM / "chars.tsv"),
        "--pinyin", str(ECM / "pinyin.tsv"),
        "--min-count", "1",
    )
    ideal, _ = _run(
        "ideal-dict",
        "--dataset", str(GOLDEN / "dataset.tsv"),
        "--proportion", "0.5",
        "--seed", "1",
    )
    return dict(
        zip(NAMES, (lattices, decoded, summary, corpus, fragment_corpus, fragments, ideal))
    )


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return produce(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", NAMES)
def test_output_is_byte_identical(outputs, name):
    expected = (EXPECTED / name).read_bytes()
    assert outputs[name].encode("utf-8") == expected


def test_fragment_case_runs_every_edit_kind():
    """The pinned corpus holds a random, a shape, a single-character
    pronunciation and a fragment pronunciation edit, and random edits of
    characters both in and out of the confusion inventory."""
    kinds = set()
    random_origs = []
    for line in (EXPECTED / "ecm_fragments.tsv").read_text("utf-8").splitlines():
        if line.startswith("#"):
            continue
        _, _, error_type, spec = line.split("\t")
        for edit in filter(None, spec.split(";")):
            orig = edit.split(":", 1)[1].split(">")[0]
            kinds.add((error_type, len(orig) > 1))
            if error_type == "random":
                random_origs.append(orig)
    assert {("random", False), ("shape", False)} <= kinds
    assert {("pronunciation", False), ("pronunciation", True)} <= kinds
    inventory = {
        c
        for line in (ECM / "chars.tsv").read_text("utf-8").splitlines()
        for c in line.split("\t")[0] + line.split("\t")[2].replace(",", "")
    }
    assert {o in inventory for o in random_origs} == {True, False}


if __name__ == "__main__":
    EXPECTED.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in produce(Path(tmp)).items():
            (EXPECTED / name).write_bytes(text.encode("utf-8"))
            print(f"wrote {EXPECTED / name}", file=sys.stderr)
