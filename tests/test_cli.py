import dataclasses
import inspect
import json
import math
from pathlib import Path

import pytest

from udspell.cli import build_parser, main
from udspell.confusion import build_ngram_confusion
from udspell.decoder import DecodeConfig
from udspell.ecm import EcmConfig
from udspell.lattice import PruneConfig, make_lattice
from udspell.scorer import ChannelModel, score_sentence, train

from conftest import lattice_line
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


# str.splitlines breaks lines at each of these; input files break only at "\n"
OTHER_LINE_BREAKS = ["\u2028", "\u2029", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85"]


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

    def test_defaults_equal_library_defaults(self, workdir):
        """Every option default that restates a library default equals it, as
        read from the dataclass fields and function signatures."""

        def fields(cls):
            return {f.name: f.default for f in dataclasses.fields(cls)}

        def params(fn):
            return {n: p.default for n, p in inspect.signature(fn).parameters.items()}

        f = str(workdir / "corpus.txt")
        parse = build_parser().parse_args

        args = parse(["decode", "--lattice", f])
        dec, prune = fields(DecodeConfig), fields(PruneConfig)
        assert (args.eta, args.asm_mode) == (dec["eta"], dec["asm_count_mode"])
        assert (args.topk, args.min_logp, args.max_logp) == (
            prune["k"], prune["min_logp"], prune["max_logp"]
        )

        args = parse(["score", "--model", f, "--char-confusion", f, "--input", f])
        assert args.topk == params(score_sentence)["k"]
        assert args.p_keep == fields(ChannelModel)["p_keep"]

        args = parse(["train-scorer", "--corpus", f, "--out", f])
        assert (args.order, args.alpha) == (params(train)["order"], params(train)["alpha"])

        args = parse(["gen-corpus", "--corpus", f, "--char-confusion", f])
        ecm = fields(EcmConfig)
        assert {name: getattr(args, name) for name in ecm} == ecm

        args = parse(["build-confusion", "--corpus", f])
        assert args.min_count == params(build_ngram_confusion)["min_count"]

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

    def test_no_fuzzy_flag_is_refused(self, workdir, capsys):
        """Exact-match pairing is gone; ignoring the flag would silently change the output."""
        corpus = str(workdir / "corpus.txt")
        code, out, err = run(capsys, "build-confusion", "--corpus", corpus, "--no-fuzzy")
        assert code == 1 and out == ""
        assert "unrecognized arguments: --no-fuzzy" in err, err

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

    def test_negative_model_count_is_runtime_error(self, workdir, capsys):
        model = workdir / "model.tsv"
        model.write_text("#udspell-ngram\t1\t1\t0.1\n#vocab\t甲乙\n\x02\t甲\t-5\n", "utf-8")
        (workdir / "in.txt").write_text("甲乙\n", "utf-8")
        code, out, err = run(
            capsys,
            "score",
            "--model",
            str(model),
            "--char-confusion",
            str(workdir / "chars.tsv"),
            "--input",
            str(workdir / "in.txt"),
        )
        assert code == 2 and out == ""
        assert err.startswith("error: line 3: malformed count entry"), err

    def test_model_alpha_that_underflows_is_runtime_error(self, workdir, capsys):
        model = workdir / "model.tsv"
        # an unseen character's probability 1e-320 / (1e6 + 2e-320) underflows to 0
        model.write_text(
            "#udspell-ngram\t1\t1\t1e-320\n#vocab\t甲乙\n\x02\t甲\t1000000\n", "utf-8"
        )
        (workdir / "chars.tsv").write_text("甲\tM\t丙\n", "utf-8")
        (workdir / "in.txt").write_text("甲乙\n", "utf-8")
        code, out, err = run(
            capsys,
            "score",
            "--model",
            str(model),
            "--char-confusion",
            str(workdir / "chars.tsv"),
            "--input",
            str(workdir / "in.txt"),
        )
        assert code == 2 and out == ""
        assert err.startswith("error: alpha 1e-320 underflows"), err

    def test_malformed_input_is_runtime_error(self, workdir, capsys):
        bad = workdir / "bad.tsv"
        bad.write_text("only-one-field\n", encoding="utf-8")
        code, _, err = run(capsys, "stats", "--dataset", str(bad))
        assert code == 2 and "error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["decode", "--lattice", "ab.jsonl", "--dict", "cd.txt", "--eta", "nan"],
            ["decode", "--lattice", "ab.jsonl", "--dict", "cd.txt", "--eta", "inf"],
            ["gen-corpus", "--corpus", "corpus.txt", "--char-confusion", "chars.tsv",
             "--p-pronunciation", "nan"],
            ["train-scorer", "--corpus", "corpus.txt", "--alpha", "nan", "--out", "model.tsv"],
        ],
        ids=["decode-eta-nan", "decode-eta-inf", "gen-corpus-p-nan", "train-scorer-alpha-nan"],
    )
    def test_non_finite_settings_are_runtime_errors(self, workdir, capsys, argv):
        lat = make_lattice("0", "ab", [[("a", -0.1), ("c", -2.0)], [("b", -0.1), ("d", -2.0)]])
        (workdir / "ab.jsonl").write_text(lattice_line(lat), encoding="utf-8")
        (workdir / "cd.txt").write_text("cd\n", encoding="utf-8")
        argv = [str(workdir / a) if a.endswith((".txt", ".tsv", ".jsonl")) else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: "), err
        assert not (workdir / "model.tsv").exists()

    @pytest.mark.parametrize(
        "command, flag, bad_line",
        [
            ("gen-corpus", "--char-confusion", "报\tQ\t抱"),
            ("build-confusion", "--pinyin", "报"),
            ("gen-corpus", "--ngram-confusion", "一年"),
            ("eval", "--records", "only-one-field"),
            ("stats", "--dataset", "only-one-field"),
            ("ideal-dict", "--dataset", "only-one-field"),
            ("build-confusion", "--pinyin", "乙\tyi3,qq9"),
            ("gen-corpus", "--char-confusion", "甲\tP\t乙x,丙"),
            ("stats", "--dataset", "0\tab\tabc"),
            ("ideal-dict", "--dataset", "0\tab\tabc"),
        ],
        ids=[
            "char-confusion", "pinyin", "ngram-confusion", "records", "stats", "ideal-dict",
            "pinyin-syllable", "char-candidate", "stats-lengths", "ideal-dict-lengths",
        ],
    )
    def test_loader_errors_give_file_line_numbers(
        self, workdir, capsys, command, flag, bad_line
    ):
        """Blank lines count: the bad entry below is reported as line 4."""
        bad = workdir / "bad.tsv"
        bad.write_text(f"# header\n\n\n{bad_line}\n", encoding="utf-8")
        base = {
            "build-confusion": ["--corpus", "corpus.txt"],
            "gen-corpus": ["--corpus", "corpus.txt", "--char-confusion", "chars.tsv"],
            "eval": [],
            "stats": [],
            "ideal-dict": ["--proportion", "1"],
        }[command]
        argv = [str(workdir / a) if a.endswith((".txt", ".tsv")) else a for a in base]
        argv += [flag, str(bad)]
        code, _, err = run(capsys, command, *argv)
        assert code == 2 and "line 4:" in err, err

    @pytest.mark.parametrize("sep", OTHER_LINE_BREAKS)
    def test_table_lines_split_on_newline_only(self, workdir, capsys, sep):
        bad = workdir / "bad.tsv"
        bad.write_text(f"报\tP\t抱\n查\tP\t察{sep}\n报\tQ\t抱\n", encoding="utf-8")
        corpus, chars = str(workdir / "corpus.txt"), str(bad)
        code, _, err = run(capsys, "gen-corpus", "--corpus", corpus, "--char-confusion", chars)
        assert code == 2 and "line 3:" in err, err


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

    @pytest.mark.parametrize("sep", OTHER_LINE_BREAKS)
    def test_score_splits_input_on_newline_only(self, workdir, capsys, sep):
        self.train(workdir, capsys)
        (workdir / "in.txt").write_text(f"甲{sep}乙\n丙\n", encoding="utf-8")
        code, out, _ = run(
            capsys,
            "score",
            "--model",
            str(workdir / "model.tsv"),
            "--char-confusion",
            str(workdir / "chars.tsv"),
            "--input",
            str(workdir / "in.txt"),
        )
        assert code == 0
        assert [json.loads(ln)["id"] for ln in out.split("\n") if ln] == ["0", "1"]

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
        lat.write_text(lattice_line(long_lattice()), encoding="utf-8")
        code, out, err = run(capsys, "decode", "--lattice", str(lat))
        assert code == 0
        assert [json.loads(ln)["id"] for ln in out.splitlines()] == ["long"]
        summary = json.loads(err.splitlines()[0].removeprefix("# "))
        assert summary["log10_avg_path_count"] == pytest.approx(450 * math.log10(5))

    def test_decode_malformed_record_keeps_earlier_output(self, workdir, capsys):
        good = lattice_line(long_lattice(3))
        lat = workdir / "bad.jsonl"
        lat.write_text(f"{good}{{\"id\": \"1\"}}\n{good}", encoding="utf-8")
        out_file = workdir / "pred.jsonl"
        code, _, err = run(capsys, "decode", "--lattice", str(lat), "--out", str(out_file))
        assert code == 2
        summary, error = err.splitlines()
        assert summary.startswith("# ")
        assert json.loads(summary[2:])["sentences"] == 1
        assert error.startswith("error: record 1: ")
        lines = out_file.read_text(encoding="utf-8").splitlines()
        assert [json.loads(ln)["output"] for ln in lines] == [long_lattice(3).input]

    def test_decode_rejects_non_string_input(self, workdir, capsys):
        lat = workdir / "list.jsonl"
        lat.write_text(
            '{"id":"a","input":["甲","乙"],"positions":[[{"t":"甲","lp":-0.1},'
            '{"t":"丙","lp":-2.0}],[{"t":"乙","lp":-0.1}]]}\n',
            encoding="utf-8",
        )
        (workdir / "jiayi.txt").write_text("甲乙\n", encoding="utf-8")
        argv = ["decode", "--lattice", str(lat), "--dict", str(workdir / "jiayi.txt")]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].startswith("error: record 0: "), err

    def test_decode_logp_beyond_float_range_names_record(self, workdir, capsys):
        lat = workdir / "huge.jsonl"
        lp = "-" + "9" * 400
        lat.write_text(
            '{"id":"a","input":"甲","positions":[[{"t":"甲","lp":%s}]]}\n' % lp, encoding="utf-8"
        )
        code, out, err = run(capsys, "decode", "--lattice", str(lat))
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].startswith("error: record 0: "), err

    def test_decode_unopenable_lattice_prints_only_the_error(self, workdir, capsys, monkeypatch):
        # skip the parser's existence check so that open() itself fails
        monkeypatch.setattr("udspell.cli._existing_file", Path)
        code, out, err = run(capsys, "decode", "--lattice", str(workdir / "missing.jsonl"))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("i/o error: ")

    def test_decode_abort_reports_records_skipped_before_it(self, workdir, capsys):
        good = lattice_line(long_lattice(3))
        # a position with no candidates: decode_corpus skips the record
        empty = lattice_line(make_lattice("5", "甲", [[]]))
        lat = workdir / "bad.jsonl"
        lat.write_text(f"{good}{empty}{{\"id\": \"2\"}}\n", encoding="utf-8")
        code, out, err = run(capsys, "decode", "--lattice", str(lat))
        assert code == 2
        summary, skipped, error = err.splitlines()
        counts = json.loads(summary[2:])
        assert (counts["sentences"], counts["flips"], counts["errors"]) == (1, 0, 1)
        assert skipped.startswith("# error 5: ")
        assert error.startswith("error: record 2: ")
        assert len(out.splitlines()) == 1

    def test_decode_skips_input_with_empty_position(self, workdir, capsys):
        empty = lattice_line(make_lattice("0", "甲乙", [[("甲", -0.1)], []]))
        good = lattice_line(make_lattice("1", "甲乙", [[("甲", -0.1)], [("乙", -0.1)]]))
        lat = workdir / "empty.jsonl"
        lat.write_text(empty + good, encoding="utf-8")
        code, out, err = run(capsys, "decode", "--lattice", str(lat))
        assert code == 0
        assert [json.loads(line)["id"] for line in out.splitlines()] == ["1"]
        assert err.splitlines()[1:] == ["# error 0: lattice '0': position 1 has no candidates"]

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

    def test_build_confusion_does_not_read_char_confusion(self, workdir, capsys):
        corpus = workdir / "pairs.txt"
        corpus.write_text("一年好\n一年大\n意念好\n意念大\n" * 2, encoding="utf-8")
        unreadable = workdir / "unreadable.tsv"
        unreadable.write_text("not a confusion table\n", encoding="utf-8")
        outputs = []
        for tables in ([], ["--char-confusion", str(unreadable)]):
            code, out, _ = run(
                capsys, "build-confusion", "--corpus", str(corpus), "--min-count", "2", *tables
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] and "一年\t意念\n" in outputs[0]

    def test_gen_corpus_and_score_do_not_read_pinyin(self, workdir, capsys):
        self.train(workdir, capsys)
        unreadable = workdir / "unreadable.tsv"
        unreadable.write_text("not a pinyin table\n", encoding="utf-8")
        commands = {
            "gen-corpus": ["--corpus", "corpus.txt", "--char-confusion", "chars.tsv"],
            "score": ["--model", "model.tsv", "--char-confusion", "chars.tsv", "--input", "corpus.txt"],
        }
        for command, base in commands.items():
            argv = [str(workdir / a) if a.endswith((".txt", ".tsv")) else a for a in base]
            outputs = []
            for tables in ([], ["--pinyin", str(unreadable)]):
                code, out, _ = run(capsys, command, *argv, *tables)
                assert code == 0, command
                outputs.append(out)
            assert outputs[0] == outputs[1] and outputs[0], command

    def test_eval_json(self, workdir, capsys):
        code, out, _ = run(
            capsys, "eval", "--records", str(workdir / "records.tsv"), "--json"
        )
        assert code == 0
        reports = json.loads(out)
        assert [r["level"] for r in reports] == ["detection", "correction"]
        corr = reports[1]
        assert corr["pre"] == 1.0 and corr["rec"] == 1.0

    def test_eval_json_bytes(self, workdir, capsys):
        # key order and float formatting are part of the output format
        records = workdir / "mixed.tsv"
        records.write_text(
            "1\t甲乙丙\t甲丁丙\t甲丁丙\n2\t乙丙丁\t乙戊丁\t乙戊丁\n3\t丙丁甲\t丙戊甲\t丙己甲\n"
            "4\t丁甲乙\t丁甲乙\t丁戊乙\n5\t甲甲乙\t甲甲乙\t甲甲乙\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "eval", "--records", str(records), "--json")
        assert code == 0
        assert out == (
            '[{"level": "detection", "style": "faspell", "acc": 0.8, "pre": 0.75, '
            '"rec": 1.0, "f1": 0.8571428571428571}, {"level": "correction", '
            '"style": "faspell", "acc": 0.6, "pre": 0.5, "rec": 0.6666666666666666, '
            '"f1": 0.5714285714285715}]\n'
        )

    def test_stats_bytes(self, workdir, capsys):
        dataset = workdir / "ds.tsv"
        dataset.write_text(
            "1\t甲乙丙\t甲乙丙\n2\t甲乙丙丁\t甲戊丙丁\n3\t甲乙丙丁戊\t甲戊己丁戊\n", encoding="utf-8"
        )
        empty = workdir / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        want = {
            (dataset, True): '{"total": 3, "error_sents": 2, "min_len": 3, "max_len": 5, '
            '"avg_len": 4.0, "continuous_error_sents": 1}\n',
            (dataset, False): "total                   3\nerror_sents             2\n"
            "min_len                 3\nmax_len                 5\n"
            "avg_len                 4.0\ncontinuous_error_sents  1\n",
            (empty, True): '{"total": 0, "error_sents": 0, "min_len": null, "max_len": null, '
            '"avg_len": null, "continuous_error_sents": 0}\n',
            (empty, False): "total                   0\nerror_sents             0\n"
            "min_len                 n/a\nmax_len                 n/a\n"
            "avg_len                 n/a\ncontinuous_error_sents  0\n",
        }
        for (path, as_json), text in want.items():
            code, out, _ = run(capsys, "stats", "--dataset", str(path), *(["--json"] * as_json))
            assert (code, out) == (0, text)

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
