import io
import itertools
import json
import math
import random
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udspell.decoder import CorpusDiagnostics, DecodeConfig, decode, decode_corpus
from udspell.dictionary import UserDictionary
from udspell.errors import DecodeError, LatticeError
from udspell.confusion import CharConfusion
from udspell.lattice import Lattice, PruneConfig, make_lattice, parse_lattice, prune, write_lattices
from udspell.scorer import ChannelModel, score_sentence, train

from conftest import NO_PRUNE, argmax_tokens, lattice_line, random_lattice
from oracle import reference


def lat_of(input_s, rows):
    return make_lattice("t", input_s, rows)


def greedy_decode(lat):
    return decode(lat, UserDictionary(()), DecodeConfig(prune=NO_PRUNE))


def record(input_s, rows, lattice_id="x"):
    """One JSON-lines lattice record with the given rows, in the given order."""
    positions = [[{"t": t, "lp": lp} for t, lp in row] for row in rows]
    return json.dumps({"id": lattice_id, "input": input_s, "positions": positions})


def assert_rejected(input_s, rows):
    """Both constructors refuse the rows: make_lattice and parse_lattice."""
    with pytest.raises(LatticeError):
        make_lattice("x", input_s, rows)
    with pytest.raises(LatticeError, match="record 0"):
        list(parse_lattice([record(input_s, rows)]))


class TestCandidate:
    def test_rejects_multichar_token(self):
        assert_rejected("a", [[("ab", -1.0)]])

    def test_rejects_positive_logp(self):
        assert_rejected("a", [[("a", 0.5)]])

    def test_rejects_nonfinite_logp(self):
        assert_rejected("a", [[("a", -math.inf)]])
        assert_rejected("a", [[("a", math.nan)]])

    def test_rejects_bool_logp(self):
        with pytest.raises(LatticeError, match="logp must be a number"):
            make_lattice("x", "a", [[("a", False)]])

    @pytest.mark.parametrize("lp", ["-0.5", None, [-0.5]])
    def test_rejects_non_number_logp(self, lp):
        with pytest.raises(LatticeError, match="lattice 'x': logp must be a number"):
            make_lattice("x", "a", [[("a", lp)]])
        assert_rejected("a", [[("a", lp)]])

    @pytest.mark.parametrize("lp", [-(10**400), Fraction(-(10**400))], ids=["int", "Fraction"])
    def test_rejects_logp_beyond_float_range(self, lp):
        """A logp with no nearest float is a LatticeError, not an OverflowError."""
        with pytest.raises(LatticeError, match="lattice 'x': logp out of float range"):
            make_lattice("x", "a", [[("a", lp)]])
        assert_rejected("a", [[("a", int(lp))]])  # a JSON file spells either as this int


class TestId:
    @pytest.mark.parametrize("lattice_id", [5, object()], ids=["int", "object"])
    def test_make_lattice_refuses_non_str_id(self, lattice_id):
        """An int id would be written as a JSON int and read back as a str, and
        an object() id would fail only while being written."""
        with pytest.raises(LatticeError, match="id must be a string"):
            make_lattice(lattice_id, "a", [[("a", -1.0)]])

    @pytest.mark.parametrize("lattice_id", ["null", "true", "[1]", '{"a":1}'])
    def test_parse_refuses_non_str_non_number_id(self, lattice_id):
        rec = '{"id":%s,"input":"a","positions":[[{"t":"a","lp":-1}]]}' % lattice_id
        with pytest.raises(LatticeError, match="record 0: .*id must be a string"):
            list(parse_lattice([rec]))

    @pytest.mark.parametrize("lattice_id,want", [("5", "5"), ("-2.5", "-2.5"), ('"5"', "5")])
    def test_parse_reads_a_number_id_as_its_text(self, lattice_id, want):
        rec = '{"id":%s,"input":"a","positions":[[{"t":"a","lp":-1}]]}' % lattice_id
        (lat,) = parse_lattice([rec])
        assert lat.id == want


class TestLatticeInvariants:
    def test_position_count_must_match_input(self):
        assert_rejected("abc", [[("a", -1.0)], [("b", -1.0)]])  # 2 positions for 3 chars

    def test_duplicate_tokens_rejected(self):
        assert_rejected("a", [[("a", -1.0), ("a", -2.0)]])

    def test_unsorted_is_canonicalized(self):
        rows = [[("a", -2.0), ("b", -1.0)]]
        built = make_lattice("x", "a", rows)
        (parsed,) = parse_lattice([record("a", rows)])
        assert built == parsed
        assert built.positions == ((("b", -1.0), ("a", -2.0)),)


class FloatLogp(float):
    def __repr__(self):
        return f"FloatLogp({float.__repr__(self)})"


class IntLogp(IntEnum):
    ZERO = 0
    MINUS_THREE = -3


# Tokens JSON must escape, the raw line separators, and any other character.
ANY_TOKEN = st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\x85", "\u2028", "\u2029"]),
    st.characters(),
)
NEG_FLOATS = st.floats(max_value=0.0, allow_nan=False, allow_infinity=False)
# Every kind of logp make_lattice accepts: floats (-0.0 and subnormals
# included), ints, their subclasses, and other finite real numbers.
ANY_LOGP = st.one_of(
    NEG_FLOATS,
    st.integers(-(10**300), 0),
    st.sampled_from([0, -3, -0.0, 0.0, -5e-324, -1.7976931348623157e308]),
    NEG_FLOATS.map(FloatLogp),
    st.sampled_from(list(IntLogp)),
    st.fractions(min_value=-(10**6), max_value=0, max_denominator=10**6),
    st.decimals(min_value=-(10**6), max_value=0, allow_nan=False, allow_infinity=False),
)


@st.composite
def any_lattices(draw, ids=st.text(ANY_TOKEN, max_size=4)):
    n = draw(st.integers(0, 5))
    rows = [
        draw(st.lists(st.tuples(ANY_TOKEN, ANY_LOGP), max_size=4, unique_by=lambda p: p[0]))
        for _ in range(n)
    ]
    input_s = draw(st.text(st.characters(), min_size=n, max_size=n))
    return make_lattice(draw(ids), input_s, rows)


class TestParseSerialize:
    def test_structural_echo(self):
        rec = '{"id":"r","input":"abc","positions":[[{"t":"a","lp":-0.1},{"t":"x","lp":-2.0}],[{"t":"b","lp":-0.2},{"t":"y","lp":-2.0}],[{"t":"c","lp":-0.3},{"t":"z","lp":-2.0}]]}'
        (lat,) = parse_lattice(io.StringIO(rec + "\n"))
        assert len(lat.positions) == 3
        assert all(len(p) == 2 for p in lat.positions)

    def test_empty_stream(self):
        assert list(parse_lattice(io.StringIO(""))) == []

    def test_structural_error_names_record(self):
        rec = '{"id":"r","input":"abc","positions":[[{"t":"a","lp":-0.1}],[{"t":"b","lp":-0.2}]]}'
        with pytest.raises(LatticeError, match="record 0"):
            list(parse_lattice(io.StringIO(rec + "\n")))

    def test_malformed_json_names_record(self):
        with pytest.raises(LatticeError, match="record 1"):
            list(parse_lattice(io.StringIO('{"id":"a","input":"","positions":[]}\n{nope\n')))

    def test_roundtrip_identity(self):
        rng = random.Random(1)
        for i in range(50):
            lat = random_lattice(rng, lattice_id=str(i))
            line = lattice_line(lat)
            (back,) = parse_lattice([line])
            assert lattice_line(back) == line
            assert back == lat

    @given(any_lattices())
    @settings(max_examples=300, deadline=None)
    def test_roundtrip_property(self, lat):
        """Every accepted logp is stored as a float, so a written lattice reads
        back exactly, whatever number type built it."""
        assert all(type(lp) is float for pos in lat.positions for _, lp in pos)
        line = lattice_line(lat)
        (back,) = parse_lattice([line])
        assert back == lat
        assert lattice_line(back) == line

    def test_canonicalization_sorts_ties_by_codepoint(self):
        lat = make_lattice("t", "a", [[("b", -1.0), ("a", -1.0)]])
        assert [t for t, _ in lat.positions[0]] == ["a", "b"]

    @pytest.mark.parametrize(
        "lp",
        ["false", "true", "null", '"-0.5"', '" -1e0 "', "[]", pytest.param("-" + "9" * 400, id="-9e399")],
    )
    def test_logp_that_is_not_a_float_or_int_names_record(self, lp):
        rec = '{"id":"r","input":"a","positions":[[{"t":"a","lp":%s}]]}' % lp
        with pytest.raises(LatticeError, match="record 0"):
            list(parse_lattice([rec]))

    @pytest.mark.parametrize("lp,want", [("-3", -3.0), ("0", 0.0), ("-0", 0.0)])
    def test_int_logp_is_read_as_a_float(self, lp, want):
        """JSON ints parse as floats, so a record reads back in its float form."""
        (lat,) = parse_lattice(['{"id":"r","input":"a","positions":[[{"t":"a","lp":%s}]]}' % lp])
        assert type(lat.positions[0][0][1]) is float
        assert repr(lat.positions[0][0][1]) == repr(want)


def dict_form(lat):
    """The record as json.dumps writes its dict form: the writer's output
    before it assembled the text itself."""
    obj = {
        "id": lat.id,
        "input": lat.input,
        "positions": [[{"t": t, "lp": lp} for t, lp in pos] for pos in lat.positions],
    }
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


class TestWriter:
    @given(any_lattices())
    @settings(max_examples=300, deadline=None)
    def test_serialize_matches_json_dumps(self, lat):
        assert lattice_line(lat) == dict_form(lat) + "\n"

    @given(st.lists(any_lattices(), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_write_matches_json_dumps_across_records(self, lats):
        buf = io.StringIO()
        write_lattices(lats, buf)
        assert buf.getvalue() == "".join(dict_form(lat) + "\n" for lat in lats)

    def test_int_logp_is_written_as_a_float(self):
        lat = make_lattice("x", "a", [[("a", 0), ("b", IntLogp.MINUS_THREE)]])
        want = '{"id":"x","input":"a","positions":[[{"t":"a","lp":0.0},{"t":"b","lp":-3.0}]]}\n'
        assert lattice_line(lat) == want


class TestCanonicalOrder:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_any_order_gives_the_canonical_position(self, data):
        """make_lattice sorts only a position it finds out of order; every
        permutation, ties included, still ends in the canonical order."""
        tokens = data.draw(st.lists(ANY_TOKEN, max_size=6, unique=True))
        tie_prone = st.one_of(st.sampled_from([0, 0.0, -0.0, -1, -1.0, -2.5]), NEG_FLOATS)
        lps = data.draw(st.lists(tie_prone, min_size=len(tokens), max_size=len(tokens)))
        canonical = sorted(zip(tokens, lps), key=lambda c: (-c[1], c[0]))
        shuffled = data.draw(st.permutations(canonical))
        want = make_lattice("x", "a", [canonical])
        got = make_lattice("x", "a", [shuffled])
        assert got.positions == want.positions == (tuple(canonical),)
        assert lattice_line(got) == lattice_line(want)


class TestRepresentation:
    def test_positions_hold_exact_tuples(self):
        """Lattices store plain (str, float) tuples, which the decoder unpacks
        fast; every way of building one keeps to that."""
        rows = [[["a", -2], ("b", -1.0)], [("c", -0.0001), ("d", Fraction(-3))], [("e", -12.0)]]
        built = make_lattice("x", "abc", rows)
        (parsed,) = parse_lattice([lattice_line(built)])
        cc = CharConfusion()
        cc.phonetic["乙"] = {"丁", "丙"}
        scored = score_sentence("甲乙", train(["甲乙丙", "甲丁"]), ChannelModel(cc))
        lats = [built, parsed, scored, prune(built, PruneConfig()), prune(scored, NO_PRUNE)]
        for lat in lats:
            assert type(lat.positions) is tuple
            for pos in lat.positions:
                assert type(pos) is tuple
                for cand in pos:
                    assert type(cand) is tuple and len(cand) == 2
                    assert type(cand[0]) is str and type(cand[1]) is float
        assert len(scored.positions[1]) == 3


class TestPruneConfig:
    def test_defaults_match_decoding_thresholds(self):
        cfg = PruneConfig()
        assert cfg.min_logp == -11.0
        assert cfg.max_logp == -0.001
        assert cfg.k == 5

    def test_bad_thresholds_rejected(self):
        with pytest.raises(LatticeError):
            PruneConfig(min_logp=-1.0, max_logp=-2.0)
        with pytest.raises(LatticeError):
            PruneConfig(k=0)


class TestPrune:
    def test_high_confidence_position_is_fixed(self):
        lat = lat_of("甲", [[("甲", -0.0005), ("家", -2.1)]])
        out = prune(lat, PruneConfig())
        assert out.positions[0] == (("甲", -0.0005),)

    def test_below_minimum_discarded(self):
        lat = lat_of("a", [[("a", -1.0), ("b", -12.0)]])
        out = prune(lat, PruneConfig())
        assert [t for t, _ in out.positions[0]] == ["a"]

    def test_survivor_rule_keeps_top(self):
        lat = lat_of("a", [[("a", -13.0), ("b", -14.0)]])
        out = prune(lat, PruneConfig())
        assert out.positions[0] == (("a", -13.0),)

    def test_boundary_equal_values_kept_unfixed(self):
        lat = lat_of("a", [[("a", -0.001), ("b", -11.0)]])
        out = prune(lat, PruneConfig())
        assert [t for t, _ in out.positions[0]] == ["a", "b"]

    def test_k_truncation(self):
        lat = lat_of("a", [[("a", -1.0), ("b", -2.0), ("c", -3.0)]])
        out = prune(lat, PruneConfig(k=2))
        assert [t for t, _ in out.positions[0]] == ["a", "b"]

    def test_disabled_config_is_identity(self):
        rng = random.Random(5)
        for _ in range(30):
            lat = random_lattice(rng)
            assert prune(lat, NO_PRUNE) == lat

    @given(st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_never_empties_and_idempotent(self, seed):
        rng = random.Random(seed)
        lat = random_lattice(rng)
        once = prune(lat, PruneConfig())
        assert all(len(p) >= 1 for p in once.positions)
        assert prune(once, PruneConfig()) == once


@st.composite
def prune_cases(draw):
    """A canonical lattice with logps around the thresholds, and a PruneConfig."""
    lps = st.one_of(st.sampled_from([0.0, -0.001, -0.5, -11.0, -12.0]), NEG_FLOATS)
    cands = st.lists(st.tuples(st.sampled_from("abcdef"), lps), max_size=6, unique_by=lambda c: c[0])
    n = draw(st.integers(0, 4))
    lat = make_lattice("x", "a" * n, [draw(cands) for _ in range(n)])
    min_logp = draw(st.one_of(st.sampled_from([-11.0, -math.inf]), st.floats(max_value=-1e-9)))
    max_logp = draw(st.floats(min_value=min_logp, max_value=0.0, exclude_min=True))
    return lat, PruneConfig(min_logp=min_logp, max_logp=max_logp, k=draw(st.integers(1, 7)))


class TestPruneMatchesReference:
    @given(prune_cases())
    @settings(max_examples=300, deadline=None)
    def test_same_positions(self, case):
        lat, cfg = case
        want = reference.prune(lat.positions, cfg.min_logp, cfg.max_logp, cfg.k)
        got = prune(lat, cfg)
        assert [list(pos) for pos in got.positions] == [list(pos) for pos in want]
        assert all(type(pos) is tuple for pos in got.positions)


class TestGreedyPath:
    """The per-position argmax path, which decode returns for an empty dictionary."""

    def test_argmax_path(self):
        lat = lat_of("xyz", [[("a", -0.5), ("x", -1.0)], [("b", -0.5)], [("c", -0.5)]])
        p = greedy_decode(lat)
        assert p.tokens == "abc"
        assert p.raw_score == pytest.approx(-1.5)

    def test_single_position(self):
        lat = lat_of("x", [[("x", -0.5)]])
        p = greedy_decode(lat)
        assert (p.tokens, p.raw_score) == ("x", -0.5)

    def test_matches_exhaustive_max(self):
        rng = random.Random(9)
        for _ in range(30):
            lat = random_lattice(rng, max_n=3, max_k=2)
            p = greedy_decode(lat)
            best = max(
                itertools.product(*lat.positions),
                key=lambda combo: sum(lp for _, lp in combo),
            )
            assert p.raw_score == pytest.approx(sum(lp for _, lp in best))
            assert p.tokens == argmax_tokens(lat)

    def test_empty_position_is_contract_violation(self):
        lat = Lattice("x", "a", ((),))
        with pytest.raises(DecodeError):
            greedy_decode(lat)


class TestPathCount:
    """decode_corpus counts each lattice's paths after pruning, exactly."""

    @staticmethod
    def total_paths(lat, prune_cfg=NO_PRUNE):
        diag = CorpusDiagnostics()
        list(decode_corpus([lat], UserDictionary(()), DecodeConfig(prune=prune_cfg), diag))
        return diag.total_paths

    def test_unpruned_is_k_to_the_n(self):
        lat = lat_of(
            "abc",
            [[("a", -1.0), ("x", -2.0)], [("b", -1.0), ("y", -2.0)], [("c", -1.0), ("z", -2.0)]],
        )
        assert self.total_paths(lat) == 8

    def test_fully_fixed_is_one(self):
        lat = lat_of("ab", [[("a", -0.0001), ("x", -2.0)], [("b", -0.0001)]])
        assert self.total_paths(lat, PruneConfig()) == 1

    def test_known_product(self):
        lat = lat_of(
            "abc",
            [
                [("a", -1.0), ("x", -2.0), ("w", -3.0)],
                [("b", -1.0), ("y", -2.0)],
                [("c", -1.0), ("z", -2.0)],
            ],
        )
        assert self.total_paths(lat) == 12
