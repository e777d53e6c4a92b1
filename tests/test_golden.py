"""Byte-exact golden outputs of the CLI on small fixed inputs.

The inputs and the expected outputs live in ``tests/golden/``. The pinned
outputs are the ``score`` lattice JSONL, the ``decode`` JSONL and its stderr
summary, and a ``gen-corpus`` ECM corpus. A change that alters any of them
changes what users get from the same inputs, so it has to be deliberate:
regenerate with ``PYTHONPATH=src python3 tests/test_golden.py`` and review
the diff.
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
NAMES = ("lattice.jsonl", "decode.jsonl", "decode.stderr", "ecm.tsv")


def _run(*argv: str) -> tuple[str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    assert code == 0, err.getvalue()
    return out.getvalue(), err.getvalue()


def produce(workdir: Path) -> dict[str, str]:
    """Run train-scorer, score, decode and gen-corpus on the golden inputs."""
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
    return dict(zip(NAMES, (lattices, decoded, summary, corpus)))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return produce(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", NAMES)
def test_output_is_byte_identical(outputs, name):
    expected = (EXPECTED / name).read_bytes()
    assert outputs[name].encode("utf-8") == expected


if __name__ == "__main__":
    EXPECTED.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in produce(Path(tmp)).items():
            (EXPECTED / name).write_bytes(text.encode("utf-8"))
            print(f"wrote {EXPECTED / name}", file=sys.stderr)
