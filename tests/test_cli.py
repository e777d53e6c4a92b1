import json
import math

import pytest

from udspell.cli import build_parser, main
from udspell.lattice import serialize_lattice

from test_decoder import long_lattice


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "corpus.txt").write_text(
        "人民检察院依法审查案件\n患者需要按照剂量服用药片\n" * 10, encoding="utf-8"
    )
    (tmp_path / "chars.tsv").write_text(
        "查\tP\t察\n报\tP\t抱,暴\n导\tM\t异\n", encoding="utf-8"
    )
    (tmp_path / "dict.txt").write_text("人民检察院\n审查案件\n", encoding="utf-8")
    (tmp_path / "dataset.tsv").write_text(
        "1\t人民监查员办事\t人民检察院办事\n2\t依法审查案件好\t依法审查案件好\n",
        encoding="utf-8",
    )
    (tmp_path / "records.tsv").write_text(
        "1\t甲乙丙\t甲丁丙\t甲丁丙\n2\t甲乙丙\t甲乙丙\t甲乙丙\n", encoding="utf-8"
    )
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParser:
    def test_all_subcommands_present(self):
        parser = build_parser()
        sub = next(
            a for a in parser._actions if a.dest == "command"
        )
        assert set(sub.choices) == {
            "build-confusion",
            "gen-corpus",
            "train-scorer",
            "score",
            "decode",
            "eval",
            "stats",
            "ideal-dict",
        }

    def test_decode_defaults(self, workdir):
        parser = build_parser()
        args = parser.parse_args(
            ["decode", "--lattice", str(workdir / "corpus.txt")]
        )
        assert args.eta == 4.0 and args.topk == 5
        assert args.min_logp == -11.0 and args.max_logp == -0.001
        assert args.asm_mode == "covered"

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


class TestExitCodes:
    def test_missing_file_is_validation_error(self, workdir, capsys):
        code, _, _ = run(capsys, "stats", "--dataset", str(workdir / "absent.tsv"))
        assert code == 1

    def test_bad_proportion_is_validation_error(self, workdir, capsys):
        code, _, _ = run(
            capsys,
            "ideal-dict",
            "--dataset",
            str(workdir / "dataset.tsv"),
            "--proportion",
            "1.5",
        )
        assert code == 1

    def test_bad_model_count_is_runtime_error(self, workdir, capsys):
        model = workdir / "model.tsv"
        model.write_text("#udspell-ngram\t1\t2\t0.1\n#vocab\ta\n\x02\x02\ta\tx\n", "utf-8")
        code, out, err = run(
            capsys,
            "score",
            "--model",
            str(model),
            "--char-confusion",
            str(workdir / "chars.tsv"),
            "--input",
            str(workdir / "corpus.txt"),
        )
        assert code == 2 and out == ""
        assert err.startswith("error: line 3: ")

    def test_malformed_input_is_runtime_error(self, workdir, capsys):
        bad = workdir / "bad.tsv"
        bad.write_text("only-one-field\n", encoding="utf-8")
        code, _, err = run(capsys, "stats", "--dataset", str(bad))
        assert code == 2 and "error" in err


class TestPipeline:
    def train(self, workdir, capsys):
        code, _, _ = run(
            capsys,
            "train-scorer",
            "--corpus",
            str(workdir / "corpus.txt"),
            "--out",
            str(workdir / "model.tsv"),
        )
        assert code == 0

    def score(self, workdir, capsys):
        code, _, _ = run(
            capsys,
            "score",
            "--model",
            str(workdir / "model.tsv"),
            "--char-confusion",
            str(workdir / "chars.tsv"),
            "--input",
            str(workdir / "corpus.txt"),
            "--out",
            str(workdir / "lattice.jsonl"),
        )
        assert code == 0

    def test_train_score_decode_eval(self, workdir, capsys):
        self.train(workdir, capsys)
        self.score(workdir, capsys)
        code, out, err = run(
            capsys,
            "decode",
            "--lattice",
            str(workdir / "lattice.jsonl"),
            "--dict",
            str(workdir / "dict.txt"),
            "--out",
            "-",
        )
        assert code == 0
        rows = [json.loads(ln) for ln in out.splitlines()]
        assert len(rows) == 20
        for row in rows:
            assert set(row) == {"id", "output", "raw_score", "dict_score", "total", "edits"}
            assert row["total"] == pytest.approx(
                row["raw_score"] + 4.0 * row["dict_score"]
            )
        assert err.startswith("# ")

    def test_score_ids_are_input_line_numbers(self, workdir, capsys):
        self.train(workdir, capsys)
        (workdir / "gaps.txt").write_text("a\n\nb\n", encoding="utf-8")
        code, out, _ = run(
            capsys,
            "score",
            "--model",
            str(workdir / "model.tsv"),
            "--char-confusion",
            str(workdir / "chars.tsv"),
            "--input",
            str(workdir / "gaps.txt"),
        )
        assert code == 0
        assert [json.loads(ln)["id"] for ln in out.splitlines()] == ["0", "2"]

    def test_decode_eta_zero_ignores_dictionary(self, workdir, capsys):
        self.train(workdir, capsys)
        self.score(workdir, capsys)
        common = ["decode", "--lattice", str(workdir / "lattice.jsonl"), "--eta", "0"]
        _, with_dict, _ = run(capsys, *common, "--dict", str(workdir / "dict.txt"))
        _, without, _ = run(capsys, *common)
        outs = lambda text: [json.loads(ln)["output"] for ln in text.splitlines()]
        assert outs(with_dict) == outs(without)

    def test_decode_path_count_beyond_float_range(self, workdir, capsys):
        lat = workdir / "long.jsonl"
        lat.write_text(serialize_lattice(long_lattice()) + "\n", encoding="utf-8")
        code, out, err = run(capsys, "decode", "--lattice", str(lat))
        assert code == 0
        assert [json.loads(ln)["id"] for ln in out.splitlines()] == ["long"]
        summary = json.loads(err.splitlines()[0].removeprefix("# "))
        assert summary["log10_avg_path_count"] == pytest.approx(450 * math.log10(5))

    def test_gen_corpus_reruns_byte_identical(self, workdir, capsys):
        argv = [
            "gen-corpus",
            "--corpus",
            str(workdir / "corpus.txt"),
            "--char-confusion",
            str(workdir / "chars.tsv"),
            "--seed",
            "9",
        ]
        code_a, a, _ = run(capsys, *argv)
        code_b, b, _ = run(capsys, *argv)
        assert code_a == code_b == 0
        assert a == b
        for line in a.splitlines():
            if line.startswith("#"):
                continue
            source, target = line.split("\t")[:2]
            assert len(source) == len(target)

    def test_build_confusion_and_stats(self, workdir, capsys):
        corpus = workdir / "pairs.txt"
        corpus.write_text("一年好\n一年大\n意念好\n意念大\n" * 2, encoding="utf-8")
        code, out, _ = run(
            capsys,
            "build-confusion",
            "--corpus",
            str(corpus),
            "--char-confusion",
            str(workdir / "chars.tsv"),
            "--min-count",
            "2",
        )
        assert code == 0
        assert "一年\t意念" in out or "意念\t一年" in out

        code, out, _ = run(
            capsys, "stats", "--dataset", str(workdir / "dataset.tsv"), "--json"
        )
        assert code == 0
        stats = json.loads(out)
        assert stats["total"] == 2 and stats["error_sents"] == 1

    def test_eval_json(self, workdir, capsys):
        code, out, _ = run(
            capsys, "eval", "--records", str(workdir / "records.tsv"), "--json"
        )
        assert code == 0
        reports = json.loads(out)
        assert [r["level"] for r in reports] == ["detection", "correction"]
        corr = reports[1]
        assert corr["pre"] == 1.0 and corr["rec"] == 1.0

    def test_ideal_dict_reproducible(self, workdir, capsys):
        argv = [
            "ideal-dict",
            "--dataset",
            str(workdir / "dataset.tsv"),
            "--proportion",
            "1.0",
            "--seed",
            "3",
        ]
        _, a, _ = run(capsys, *argv)
        _, b, _ = run(capsys, *argv)
        assert a == b and a.strip()
