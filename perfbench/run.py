#!/usr/bin/env python3
"""udspell pipeline benchmark: command throughput, a traced per-module
breakdown, and output checks made apart from the program.

Run from the repository root:

    python3 perfbench/run.py --workload dense --seed 1 --seconds 55 --trace 0

It generates seeded synthetic inputs (perfbench/workloads.py), runs the
``udspell`` subcommands in-process through ``udspell.cli.main`` on files in
a scratch directory, checks every output against the benchmark's own
computations (perfbench/checks.py, perfbench/reference.py), and prints as
its last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. An operation is one record through one command. ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the
per-layer ones from a traced run. ``--profile N`` first runs one extra,
unmeasured round under cProfile and prints each command's top N functions
to stderr.
"""
from __future__ import annotations

import argparse
import contextlib
import cProfile
import hashlib
import io
import json
import pstats
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference as ref  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP = ("build-confusion", "train-scorer", "ideal-dict")
# each command's output file; eval prints its figures to stdout
OUTPUTS = {
    "build-confusion": "ngram.tsv", "train-scorer": "model.tsv", "gen-corpus": "noisy.tsv",
    "score": "lattices.jsonl", "ideal-dict": "dict.txt", "decode": "decoded.jsonl", "eval": None,
}
COMMANDS = (
    "build-confusion", "train-scorer", "gen-corpus", "score", "ideal-dict", "decode", "eval",
)

OVERFLOW = "decode-avg-path-overflow"
FAULTS = {
    OVERFLOW: (
        "udspell.decoder.decode_corpus computes avg_path_count = total_paths / "
        "sentence_count as a float; once a post-prune path count exceeds ~1.8e308 "
        "it raises OverflowError after every record was decoded, and udspell decode "
        "writes no output"
    ),
}
BEAM_NOTE = (
    "udspell.decoder.decode keeps beam_size hypotheses per position; lattices "
    "whose total is below the reference maximum are counted in decoder.exact, "
    "not as failed operations, because their number depends on the seed; "
    "lattices with at most beam_size paths fail if below it"
)


def load_cli():
    """Import the program from the checkout's own src/ tree."""
    src = ROOT / "src"
    if not (src / "udspell" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no udspell sources under {src}")
    sys.path.insert(0, str(src))
    from udspell import cli

    if Path(cli.__file__).resolve().parent != (src / "udspell").resolve():
        raise SystemExit(f"perfbench: imported udspell from {cli.__file__}, not {src}")
    return cli


@dataclass
class Call:
    seconds: float
    ops: int
    rc: int | None
    error: str | None
    stdout: str
    digest: bytes = b""  # sha256 of the command's output


@dataclass
class Round:
    calls: dict[str, list[Call]] = field(default_factory=dict)
    seconds: float = 0.0


class Pipeline:
    """One workload's input files plus the command chain that runs on them."""

    def __init__(self, cli, inputs: workloads.Inputs, work: Path):
        self.cli = cli
        self.inputs = inputs
        self.work = work
        self.files = workloads.write_inputs(inputs, work)
        self.profile_top = 0
        self.repeat = workloads.SHAPES[inputs.workload].repeat
        self.tracer: spans.Tracer | None = None
        self.corpus_chars = sum(map(len, inputs.corpus))
        self.dense = bool(inputs.dense)

    def path(self, name: str) -> Path:
        return self.work / name

    def _call(self, rnd: Round, cmd: str, argv: list, ops: int) -> None:
        """Run one command ``repeat`` times (decode once) and record each call."""
        for _ in range(1 if cmd == "decode" else self.repeat):
            self._call_once(rnd, cmd, argv, ops)

    def _call_once(self, rnd: Round, cmd: str, argv: list, ops: int) -> None:
        argv = [cmd] + [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        prof = cProfile.Profile() if self.profile_top else None
        error = rc = None
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if prof:
                prof.enable()
            try:
                if self.tracer is not None:
                    with self.tracer.span(f"cli.{cmd}"):
                        rc = self.cli.main(argv)
                else:
                    rc = self.cli.main(argv)
            except Exception as e:  # a crashing command fails its records; the run goes on
                error = f"{type(e).__name__}: {e}"
            if prof:
                prof.disable()
        elapsed = time.perf_counter() - start
        stdout = out.getvalue()
        output = OUTPUTS[cmd]
        if output and self.path(output).exists():
            blob = self.path(output).read_bytes()
        else:
            blob = stdout.encode()
        rnd.calls.setdefault(cmd, []).append(
            Call(elapsed, ops, rc, error, stdout, hashlib.sha256(blob).digest())
        )
        if prof:
            print(f"== cProfile top {self.profile_top}: udspell {cmd}", file=sys.stderr)
            pstats.Stats(prof, stream=sys.stderr).sort_stats("cumulative").print_stats(
                self.profile_top
            )

    def run_round(self) -> Round:
        rnd = Round()
        start = time.perf_counter()
        f = self.files
        n = len(self.inputs.corpus)
        corpus = ["--corpus", f["corpus"]]
        tables = ["--char-confusion", f["chars"], "--pinyin", f["pinyin"]]
        self._call(rnd, "build-confusion", [*corpus, *tables, "--out", self.path("ngram.tsv")], n)
        self._call(rnd, "train-scorer", [*corpus, "--out", self.path("model.tsv")], n)
        self._call(rnd, "gen-corpus", [
            *corpus, *tables, "--ngram-confusion", self.path("ngram.tsv"),
            "--out", self.path("noisy.tsv"),
        ], n)
        sources, targets = self.glue_corpus()
        self._call(rnd, "score", [
            "--model", self.path("model.tsv"), *tables, "--input", self.path("sources.txt"),
            "--out", self.path("lattices.jsonl"),
        ], n)
        self._call(rnd, "ideal-dict", [
            "--dataset", self.path("dataset.tsv"), "--proportion", workloads.IDEAL_PROPORTION,
            "--out", self.path("dict.txt"),
        ], n)
        lat_file, dict_file = self.decode_inputs()
        lattices = self.read_lines(lat_file)
        self._call(rnd, "decode", [
            "--lattice", lat_file, "--dict", dict_file, "--out", self.path("decoded.jsonl"),
        ], len(lattices))
        records = self.glue_eval(lattices, sources, targets)
        self._call(rnd, "eval", ["--records", self.path("records.tsv"), "--json"], len(records))
        rnd.seconds = time.perf_counter() - start
        return rnd

    # ---- glue between commands (untimed; what a user's shell script would do)

    @staticmethod
    def read_lines(path: Path) -> list[str]:
        return [ln for ln in path.read_text("utf-8").splitlines() if ln.strip()]

    def glue_corpus(self) -> tuple[list[str], list[str]]:
        """Sources for ``score`` and the id/source/target dataset for ``ideal-dict``."""
        try:
            recs, _ = checks.parse_gen(self.path("noisy.tsv").read_text("utf-8"))
            pairs = [(r.source, r.target) for r in recs]
        except (OSError, ValueError):
            pairs = []
        if len(pairs) != len(self.inputs.corpus):
            pairs = [(s, s) for s in self.inputs.corpus]
        self.path("sources.txt").write_text("".join(s + "\n" for s, _ in pairs), "utf-8")
        self.path("dataset.tsv").write_text(
            "".join(f"{i}\t{s}\t{t}\n" for i, (s, t) in enumerate(pairs)), "utf-8"
        )
        return [s for s, _ in pairs], [t for _, t in pairs]

    def decode_inputs(self) -> tuple[Path, Path]:
        """The lattice file and dictionary ``decode`` reads."""
        lattices = self.files["dense_lattices"] if self.dense else self.path("lattices.jsonl")
        return lattices, self.files["terms"]

    def glue_eval(self, lattices: list[str], sources: list[str], targets: list[str]):
        """(input, gold, pred) per decoded lattice; without a decode output the
        prediction is the uncorrected input."""
        if self.dense:
            pairs = [(lat.input, lat.gold) for lat in self.inputs.dense]
        else:
            pairs = list(zip(sources, targets))
        preds = {}
        for line in self.read_lines(self.path("decoded.jsonl")):
            obj = json.loads(line)
            preds[obj["id"]] = obj["output"]
        ids = [json.loads(line)["id"] for line in lattices]
        records = [(inp, gold, preds.get(i, inp)) for i, (inp, gold) in zip(ids, pairs)]
        self.path("records.tsv").write_text(
            "".join(f"{k}\t{a}\t{b}\t{c}\n" for k, (a, b, c) in enumerate(records)), "utf-8"
        )
        return records


@dataclass
class Verdict:
    failed: dict[str, set[int]]
    faults: dict[str, int]
    unexpected: list[str]
    decode: checks.DecodeStats
    eval_f1: float = 0.0


def check_round(pipe: Pipeline, rnd: Round, seed: int) -> Verdict:
    """Full output checks of one round against the reference computations."""
    inputs = pipe.inputs
    lm = ref.ngram_counts(inputs.corpus)
    failed: dict[str, set[int]] = {}
    faults: dict[str, int] = {}
    unexpected: list[str] = []
    stats = checks.DecodeStats()

    def text(name: str) -> str:
        return pipe.path(name).read_text("utf-8")

    def lines(name: str) -> list[str]:
        return pipe.read_lines(pipe.path(name))

    ngram: dict[str, set[str]] = {}
    sources, targets = [], []
    eval_records: list[tuple[str, ...]] = []
    for cmd, calls in rnd.calls.items():
        call = calls[-1]  # the files on disk are the last call's output
        if call.error is not None or call.rc != 0:
            failed[cmd] = set(range(call.ops))
            if cmd == "decode" and is_overflow_fault(pipe, call):
                faults[OVERFLOW] = call.ops
            else:
                unexpected.append(f"{cmd}: {call.error or f'exit code {call.rc}'}")
            continue
        try:
            if cmd == "build-confusion":
                res = checks.check_build_confusion(text("ngram.tsv"), inputs)
                ngram = checks.parse_ngram(text("ngram.tsv"))
            elif cmd == "train-scorer":
                res = checks.check_train_scorer(text("model.tsv"), inputs, lm)
            elif cmd == "gen-corpus":
                res = checks.check_gen_corpus(text("noisy.tsv"), inputs, ngram)
                sources = lines("sources.txt")
                targets = [ln.split("\t")[2] for ln in lines("dataset.tsv")]
            elif cmd == "score":
                res = checks.check_score(lines("lattices.jsonl"), sources, inputs, lm, seed)
            elif cmd == "ideal-dict":
                res = checks.check_ideal_dict(text("dict.txt"), targets)
            elif cmd == "decode":
                lat_file, dict_file = pipe.decode_inputs()
                lattices = [json.loads(ln) for ln in pipe.read_lines(lat_file)]
                terms = set(pipe.read_lines(dict_file))
                res = checks.check_decode(lines("decoded.jsonl"), lattices, terms, stats)
            else:
                eval_records = [tuple(ln.split("\t")[1:]) for ln in lines("records.tsv")]
                res = checks.check_eval(call.stdout, eval_records)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
            res = checks.Result(call.ops)
            res.fail(None, f"unreadable output: {type(e).__name__}: {e}")
        failed[cmd] = res.failed
        unexpected.extend(f"{cmd}: {m}" for m in res.messages)
    f1 = ref.prf(eval_records, "correction")["f1"] if eval_records else 0.0
    return Verdict(failed, faults, unexpected, stats, f1)


def is_overflow_fault(pipe: Pipeline, call: Call) -> bool:
    """The decode call died of the known average-path-count overflow: an
    OverflowError, a reference path count beyond the float range, no output."""
    if not (call.error or "").startswith("OverflowError"):
        return False
    lattices = [json.loads(ln) for ln in pipe.read_lines(pipe.decode_inputs()[0])]
    empty = not pipe.read_lines(pipe.path("decoded.jsonl"))
    return empty and checks.overflowing_path_count(lattices)


def count_failed(rounds: list[Round], verdict: Verdict) -> tuple[int, list[str]]:
    """Failed operations of every call in the run: a call that reproduces the
    checked one (the last call of the last round) fails the records the check
    failed; a call whose output differs fails all its records, since the
    commands are deterministic."""
    failed = 0
    problems = []
    for rnd in rounds:
        for cmd, calls in rnd.calls.items():
            checked = rounds[-1].calls[cmd][-1]
            for call in calls:
                if call.digest == checked.digest and call.error == checked.error:
                    failed += len(verdict.failed.get(cmd, ()))
                else:
                    failed += call.ops
                    problems.append(f"{cmd}: output differs between calls")
    return failed, problems


# ---- metrics -------------------------------------------------------------------


def end_to_end(pipe: Pipeline, rounds: list[Round], peak_rss_mb: float) -> dict[str, float]:
    med = statistics.median
    chars = pipe.corpus_chars  # score's sources keep the corpus sentence lengths
    lattice_chars = sum(
        len(json.loads(ln)["input"]) for ln in pipe.read_lines(pipe.decode_inputs()[0])
    )
    def times(cmd: str) -> list[float]:
        return [c.seconds for r in rounds for c in r.calls[cmd]]

    return {
        "setup_s": med(map(sum, zip(*(times(c) for c in SETUP)))),
        "gen_chars_per_s": chars / med(times("gen-corpus")),
        "score_chars_per_s": chars / med(times("score")),
        "decode_chars_per_s": lattice_chars / med(times("decode")),
        "peak_rss_mb": peak_rss_mb,
    }


def _quantile(values: list[float], q: float) -> float:
    values = sorted(values)
    return values[min(len(values) - 1, max(0, round(q * len(values) + 0.5) - 1))]


def layer_times(tracer: spans.Tracer, repeat: int) -> dict[str, float]:
    """Self and inclusive times per layer metric from one traced round, per
    pass of the chain (commands other than decode run ``repeat`` times)."""
    recorded = tracer.spans
    own = tracer.self_times()
    root = [0] * len(recorded)
    for i, s in enumerate(recorded):
        root[i] = i if s.parent < 0 else root[s.parent]
    weight = [1.0 if recorded[r].name == "cli.decode" else 1.0 / repeat for r in root]

    def self_sum(pred) -> float:
        return sum(
            own[i] * weight[i]
            for i, s in enumerate(recorded)
            if pred(s.name, recorded[root[i]].name)
        )

    def named(*names):
        return lambda n, _r: n in names

    def module(mod, cmd=None, exclude=()):
        return lambda n, r: (
            n.startswith(mod + ".") and n not in exclude and cmd in (None, r[len("cli."):])
        )

    loads = ("confusion.load_char_confusion", "confusion.load_ngram_confusion")
    out = {f"cli.{c}.self_s": self_sum(module("cli", c)) for c in COMMANDS}
    out.update({
        "pinyin.load_s": self_sum(module("pinyin")),
        "confusion.load_s": self_sum(named(*loads)),
        "confusion.build_s": self_sum(module("confusion", "build-confusion", loads)),
        "ecm.generate_s": self_sum(module("ecm", "gen-corpus")),
        "scorer.train_s": self_sum(module("scorer", "train-scorer")),
        "scorer.load_s": self_sum(named("scorer.load_model")),
        "scorer.score_s": self_sum(named("scorer.score_sentence", "scorer.score_corpus")),
        "lattice.serialize_s": self_sum(
            named("lattice.serialize_lattice", "lattice.write_lattices")
        ),
        "lattice.parse_s": self_sum(named("lattice.parse_lattice", "lattice.make_lattice")),
        "lattice.prune_s": self_sum(named("lattice.prune")),
        "dictionary.load_s": self_sum(named("dictionary.load_dictionary")),
        "dictionary.match_s": self_sum(
            module("dictionary", "decode", ("dictionary.load_dictionary",))
        ),
        "dictionary.ideal_s": self_sum(module("dictionary", "ideal-dict")),
        "decoder.decode_s": self_sum(named("decoder.decode")),
        "evaluate.metrics_s": self_sum(module("evaluate")),
    })
    decode_ms = [1000 * (s.end - s.start) for s in recorded if s.name == "decoder.decode"]
    out["decoder.decode_ms.p50"] = _quantile(decode_ms, 0.5) if decode_ms else 0.0
    out["decoder.decode_ms.p99"] = _quantile(decode_ms, 0.99) if decode_ms else 0.0
    overhead = 0.0
    for s in recorded:
        if s.name == "decoder.decode_corpus":
            overhead += s.end - s.start
        elif (
            s.parent >= 0
            and recorded[s.parent].name == "decoder.decode_corpus"
            and s.name in ("decoder.decode", "lattice.parse_lattice")
        ):
            overhead -= s.end - s.start
    out["decoder.corpus_overhead_s"] = overhead
    return out


def json_baselines(pipe: Pipeline) -> tuple[float, float]:
    """json.dumps time on the scored lattice objects; json.loads time on the
    decode input lines."""
    lines = pipe.read_lines(pipe.path("lattices.jsonl"))
    objs = [json.loads(ln) for ln in lines]
    start = time.perf_counter()
    for obj in objs:
        json.dumps(obj, ensure_ascii=False, separators=(",", ":"))
    dumps = time.perf_counter() - start
    dec_lines = pipe.read_lines(pipe.decode_inputs()[0])
    start = time.perf_counter()
    for ln in dec_lines:
        json.loads(ln)
    loads = time.perf_counter() - start
    return dumps, loads


def layer_counts(pipe: Pipeline, verdict: Verdict) -> dict[str, float]:
    lat_file, dict_file = pipe.decode_inputs()
    lat_lines = pipe.read_lines(lat_file)
    kept = positions = 0
    for ln in lat_lines:
        for cands in ref.prune(checks.lattice_positions(json.loads(ln))):
            kept += len(cands)
            positions += 1
    recs, summary = checks.parse_gen(pipe.path("noisy.tsv").read_text("utf-8"))
    edited = sum(1 for r in recs if r.edits)
    drawn = edited + summary.get("degraded", 0)
    return {
        "confusion.fragments": len(pipe.read_lines(pipe.path("ngram.tsv"))),
        "ecm.edits": sum(len(r.edits) for r in recs),
        "ecm.edited_per_drawn": edited / drawn if drawn else 0.0,
        "lattice.bytes": lat_file.stat().st_size,
        "lattice.kept_per_position": kept / positions if positions else 0.0,
        "dictionary.terms": len(pipe.read_lines(dict_file)),
        "decoder.exact": verdict.decode.exact,
        "decoder.decoded": verdict.decode.decoded,
        "evaluate.correction_f1": verdict.eval_f1,
    }


# ---- driver ----------------------------------------------------------------------


def declared_units(trace_on: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace_on else "end_to_end"]}


def measure(run_round, seconds: float) -> list[Round]:
    """Whole rounds until the next one would end after ``seconds``; at least one."""
    rounds: list[Round] = []
    start = time.perf_counter()
    while not rounds or (time.perf_counter() - start) + rounds[-1].seconds <= seconds:
        rounds.append(run_round())
    return rounds


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.SHAPES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", type=int, default=0, metavar="N",
                    help="print each command's cProfile top N from one extra unmeasured round")
    args = ap.parse_args(argv)

    cli = load_cli()
    units = declared_units(bool(args.trace))
    checked = ref.self_test()
    print(f"reference decoder self-test: {checked} comparisons with brute force agree")

    inputs = workloads.make_inputs(args.workload, args.seed)
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=scratch))
    try:
        pipe = Pipeline(cli, inputs, work)
        if args.profile:
            pipe.profile_top = args.profile
            pipe.run_round()
            pipe.profile_top = 0
        # Rounds first, checks after: peak RSS then reflects the commands rather
        # than the reference computations, and the files on disk are the last
        # round's, which every other round must reproduce.
        first = pipe.run_round()
        budget = args.seconds - first.seconds
        if args.trace:
            tracer = spans.Tracer()
            pipe.tracer = tracer
            per_round = []

            def traced_round() -> Round:
                tracer.reset()
                rnd = pipe.run_round()
                values = layer_times(tracer, pipe.repeat)
                dumps, loads = json_baselines(pipe)
                values["lattice.serialize_vs_json"] = values["lattice.serialize_s"] / dumps
                values["lattice.parse_vs_json"] = values["lattice.parse_s"] / loads
                values["scorer.us_per_char"] = 1e6 * values["scorer.score_s"] / pipe.corpus_chars
                per_round.append(values)
                return rnd

            with spans.install(tracer):
                traced = measure(traced_round, budget)
            rounds = [first] + traced
        else:
            rounds = [first] + measure(pipe.run_round, budget)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        verdict = check_round(pipe, rounds[-1], args.seed)
        failed, problems = count_failed(rounds, verdict)
        problems = verdict.unexpected + problems
        attempted = sum(c.ops for r in rounds for calls in r.calls.values() for c in calls)

        if args.trace:
            metrics = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
            metrics.update(layer_counts(pipe, verdict))
            traced_s = statistics.median(r.seconds for r in traced)
            print(f"tracing overhead: {100 * (traced_s / first.seconds - 1):+.2f}% per round "
                  f"({first.seconds:.3f} s untraced, {traced_s:.3f} s traced, "
                  f"{len(tracer.spans)} spans in the last traced round)")
            spans_file = scratch / f"spans-{args.workload}-{args.seed}.jsonl"
            with open(spans_file, "w", encoding="utf-8") as fh:
                tracer.dump(fh)
        else:
            metrics = end_to_end(pipe, rounds, peak_rss_mb)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for cmd in COMMANDS:
        times = [c.seconds for r in rounds for c in r.calls[cmd]]
        print(f"udspell {cmd}: {rounds[0].calls[cmd][0].ops} records, {len(times)} calls, median "
              f"{statistics.median(times):.4f} s (min {min(times):.4f}, max {max(times):.4f})")
    for name, count in sorted(verdict.faults.items()):
        print(f"known fault {name}: {count} operations failed per round - {FAULTS[name]}")
    d = verdict.decode
    print(f"known fault beam-truncation: {d.decoded - d.exact} of {d.decoded} decoded lattices "
          f"below the reference maximum (largest shortfall {d.worst_gap:.4f}) - {BEAM_NOTE}")
    for p in problems[:20]:
        print(f"CHECK FAILED {p}")
    print(f"{len(rounds)} rounds, {attempted} operations attempted, {failed} failed")
    if set(metrics) != set(units):
        mismatch = sorted(set(metrics) ^ set(units))
        raise SystemExit(f"perfbench: metrics {mismatch} do not match BENCHMARK.json")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
