"""Command line front end for the full pipeline.

Exit codes: 0 success, 1 argument/validation error, 2 runtime error.
All randomness is controlled by --seed flags, so identical invocations
produce identical outputs. No command mutates its input files.
"""
from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack
from dataclasses import asdict
from pathlib import Path
from typing import IO

from . import confusion as confusion_mod
from . import ecm as ecm_mod
from . import evaluate as eval_mod
from . import scorer as scorer_mod
from .decoder import CorpusDiagnostics, DecodeConfig, decode_corpus
from .dictionary import UserDictionary, build_ideal_dictionary, load_dictionary
from .errors import UdspellError, diff_runs
from .lattice import PruneConfig, parse_lattice, write_lattices
from .pinyin import default_table, load_pinyin_table


def _existing_file(path: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise argparse.ArgumentTypeError(f"no such file: {path}")
    return p


def _proportion(value: str) -> float:
    v = float(value)
    if not (0.0 <= v <= 1.0):
        raise argparse.ArgumentTypeError(f"proportion must be in [0, 1], got {value}")
    return v


def _read_lines(path: Path) -> list[str]:
    """A corpus's non-blank lines; their index sets each sentence's seed."""
    return [ln for ln in _read_table(path) if ln.strip()]


def _read_table(path: Path) -> list[str]:
    """Every line of a file, so that loader errors and ids give file line numbers."""
    return path.read_text("utf-8").split("\n")  # splitlines also splits at U+2028, \f, ...


def _out_handle(stack: ExitStack, path: str | None) -> IO[str]:
    if path is None or path == "-":
        return sys.stdout
    return stack.enter_context(open(path, "w", encoding="utf-8"))


def _add_ignored_flag(p: argparse.ArgumentParser, flag: str) -> None:
    p.add_argument(
        flag,
        type=_existing_file,
        default=None,
        help="ignored; accepted so that older command lines still parse",
    )


def _add_ecm_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p-pronunciation", type=float, default=0.30)
    p.add_argument("--p-shape", type=float, default=0.30)
    p.add_argument("--p-random", type=float, default=0.20)
    p.add_argument("--p-unchanged", type=float, default=0.20)
    p.add_argument("--max-ratio", type=float, default=0.15)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="udspell",
        description="User-dictionary guided spelling-check toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-confusion", help="build the fragment confusion set from a corpus")
    p.add_argument("--corpus", type=_existing_file, required=True)
    _add_ignored_flag(p, "--char-confusion")
    p.add_argument("--pinyin", type=_existing_file, default=None, help="defaults to the bundled table")
    p.add_argument("--min-count", type=int, default=5)
    p.add_argument("--no-fuzzy", action="store_true", help="require exact tone-less pinyin matches")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_build_confusion)

    p = sub.add_parser("gen-corpus", help="generate an error-consistent corrupted corpus")
    p.add_argument("--corpus", type=_existing_file, required=True)
    p.add_argument("--char-confusion", type=_existing_file, required=True)
    p.add_argument("--ngram-confusion", type=_existing_file, default=None)
    _add_ignored_flag(p, "--pinyin")  # only build-confusion reads pinyin
    p.add_argument("--seed", type=int, default=0)
    _add_ecm_flags(p)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_gen_corpus)

    p = sub.add_parser("train-scorer", help="train the n-gram noisy-channel scorer")
    p.add_argument("--corpus", type=_existing_file, required=True)
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--alpha", type=float, default=0.1)
    # opened only once training has succeeded, so not the shared output stream
    p.add_argument("--out", dest="model_out", metavar="OUT", required=True)
    p.set_defaults(func=_cmd_train_scorer)

    p = sub.add_parser("score", help="emit top-k lattices for sentences")
    p.add_argument("--model", type=_existing_file, required=True)
    p.add_argument("--char-confusion", type=_existing_file, required=True)
    _add_ignored_flag(p, "--pinyin")  # only build-confusion reads pinyin
    p.add_argument("--input", type=_existing_file, required=True, help="one sentence per line")
    p.add_argument("--topk", type=int, default=5)
    p.add_argument("--p-keep", type=float, default=0.97)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("decode", help="dictionary-guided exact decode of a lattice file")
    p.add_argument("--lattice", type=_existing_file, required=True)
    p.add_argument("--dict", type=_existing_file, default=None)
    p.add_argument("--eta", type=float, default=4.0)
    p.add_argument("--topk", type=int, default=5)
    p.add_argument("--min-logp", type=float, default=-11.0)
    p.add_argument("--max-logp", type=float, default=-0.001)
    p.add_argument("--asm-mode", choices=("covered", "altered"), default="covered")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("eval", help="sentence-level metrics over an id/input/gold/pred TSV")
    p.add_argument("--records", type=_existing_file, required=True)
    p.add_argument("--style", choices=eval_mod.STYLES, default="faspell")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("stats", help="dataset statistics over an id/source/target TSV")
    p.add_argument("--dataset", type=_existing_file, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("ideal-dict", help="sample gold error phrases into a dictionary")
    p.add_argument("--dataset", type=_existing_file, required=True)
    p.add_argument("--proportion", type=_proportion, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_ideal_dict)

    return parser


def _cmd_build_confusion(args, out: IO[str]) -> None:
    pinyin = default_table() if args.pinyin is None else load_pinyin_table(_read_table(args.pinyin))
    conf = confusion_mod.build_ngram_confusion(
        _read_lines(args.corpus),
        pinyin,
        min_count=args.min_count,
        fuzzy=not args.no_fuzzy,
    )
    confusion_mod.save_ngram_confusion(conf, out)


def _cmd_gen_corpus(args, out: IO[str]) -> None:
    char_conf = confusion_mod.load_char_confusion(_read_table(args.char_confusion))
    ngram = {}
    if args.ngram_confusion is not None:
        ngram = confusion_mod.load_ngram_confusion(_read_table(args.ngram_confusion))
    cfg = ecm_mod.EcmConfig(
        p_pronunciation=args.p_pronunciation,
        p_shape=args.p_shape,
        p_random=args.p_random,
        p_unchanged=args.p_unchanged,
        max_ratio=args.max_ratio,
        seed=args.seed,
    )
    records = ecm_mod.generate_corpus(_read_lines(args.corpus), char_conf, ngram, cfg)
    ecm_mod.write_records(records, out)


def _cmd_train_scorer(args, out: IO[str]) -> None:
    model = scorer_mod.train(_read_lines(args.corpus), order=args.order, alpha=args.alpha)
    with open(args.model_out, "w", encoding="utf-8") as fh:
        scorer_mod.save_model(model, fh)


def _cmd_score(args, out: IO[str]) -> None:
    with open(args.model, encoding="utf-8") as fh:
        model = scorer_mod.load_model(fh)
    char_conf = confusion_mod.load_char_confusion(_read_table(args.char_confusion))
    channel = scorer_mod.ChannelModel(confusion=char_conf, p_keep=args.p_keep)
    sentences = _read_table(args.input)  # ids are line numbers
    write_lattices(scorer_mod.score_corpus(sentences, model, channel, k=args.topk), out)


def _cmd_decode(args, out: IO[str]) -> None:
    dic = load_dictionary(_read_table(args.dict)) if args.dict is not None else UserDictionary(())
    cfg = DecodeConfig(
        eta=args.eta,
        prune=PruneConfig(min_logp=args.min_logp, max_logp=args.max_logp, k=args.topk),
        asm_count_mode=args.asm_mode,
    )
    diag = CorpusDiagnostics()
    with open(args.lattice, encoding="utf-8") as fh:
        try:
            # each record is written as soon as it is decoded; a malformed
            # record aborts the run with the records before it already written
            for lat, path in decode_corpus(parse_lattice(fh), dic, cfg, diag):
                out.write(
                    json.dumps(
                        {
                            "id": lat.id,
                            "output": path.tokens,
                            "raw_score": path.raw_score,
                            "dict_score": path.dict_score,
                            "total": path.total,
                            "edits": [
                                {"pos": i, "orig": lat.input[i], "repl": path.tokens[i]}
                                for s, e in diff_runs(lat.input, path.tokens)
                                for i in range(s, e)
                            ],
                        },
                        ensure_ascii=False,
                        separators=(",", ":"),
                    )
                    + "\n"
                )
        finally:
            # the summary covers the records handled so far, also when one aborts the run
            summary = {
                "sentences": diag.sentence_count,
                "log10_avg_path_count": diag.log10_avg_path_count,
                "flips": diag.flip_count,
                "errors": len(diag.errors),
            }
            print(f"# {json.dumps(summary)}", file=sys.stderr)
            for lat_id, msg in diag.errors:
                print(f"# error {lat_id}: {msg}", file=sys.stderr)


def _cmd_eval(args, out: IO[str]) -> None:
    records = eval_mod.read_eval_records(_read_table(args.records))
    reports = eval_mod.all_metrics(records, style=args.style)
    if args.json:
        print(json.dumps([asdict(r) for r in reports]), file=out)
    else:
        print(f"{'level':<12}{'acc':>8}{'pre':>8}{'rec':>8}{'f1':>8}", file=out)
        for r in reports:
            print(f"{r.level:<12}{r.acc:8.4f}{r.pre:8.4f}{r.rec:8.4f}{r.f1:8.4f}", file=out)


def _cmd_stats(args, out: IO[str]) -> None:
    stats = eval_mod.dataset_stats(eval_mod.read_dataset(_read_table(args.dataset)))
    if args.json:
        print(json.dumps(asdict(stats)), file=out)
    else:
        for k, v in asdict(stats).items():
            print(f"{k:<24}{v if v is not None else 'n/a'}", file=out)


def _cmd_ideal_dict(args, out: IO[str]) -> None:
    pairs = eval_mod.read_dataset(_read_table(args.dataset))
    dic = build_ideal_dictionary(pairs, proportion=args.proportion, seed=args.seed)
    for term in sorted(dic.terms):
        out.write(term + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    try:
        with ExitStack() as stack:
            # commands without an --out stream write to stdout
            args.func(args, _out_handle(stack, getattr(args, "out", None)))
    except UdspellError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
