import io
import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udspell.errors import LatticeError
from udspell.lattice import (
    Lattice,
    PruneConfig,
    candidate_path_count,
    greedy_path,
    make_lattice,
    parse_lattice,
    prune,
    serialize_lattice,
)

from conftest import random_lattice


def lat_of(input_s, rows):
    return make_lattice("t", input_s, rows)


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

    def test_fields_and_unpacking(self):
        (cand,) = make_lattice("x", "a", [[("a", -1.0)]]).positions[0]
        token, logp = cand
        assert (cand.token, cand.logp) == (token, logp) == ("a", -1.0)


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


TOKENS = st.characters(blacklist_categories=("Cs",))


@st.composite
def lattices(draw):
    n = draw(st.integers(0, 6))
    rows = [
        draw(
            st.lists(
                st.tuples(TOKENS, st.floats(max_value=0.0, allow_nan=False, allow_infinity=False)),
                max_size=4,
                unique_by=lambda p: p[0],
            )
        )
        for _ in range(n)
    ]
    input_s = "".join(draw(st.lists(TOKENS, min_size=n, max_size=n)))
    return make_lattice(draw(st.text(TOKENS, max_size=4)), input_s, rows)


class TestParseSerialize:
    def test_structural_echo(self):
        rec = '{"id":"r","input":"abc","positions":[[{"t":"a","lp":-0.1},{"t":"x","lp":-2.0}],[{"t":"b","lp":-0.2},{"t":"y","lp":-2.0}],[{"t":"c","lp":-0.3},{"t":"z","lp":-2.0}]]}'
        (lat,) = parse_lattice(io.StringIO(rec + "\n"))
        assert len(lat) == 3
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
            line = serialize_lattice(lat)
            (back,) = parse_lattice([line])
            assert serialize_lattice(back) == line
            assert back == lat

    @given(lattices())
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, lat):
        line = serialize_lattice(lat)
        (back,) = parse_lattice([line])
        assert back == lat
        assert serialize_lattice(back) == line

    def test_canonicalization_sorts_ties_by_codepoint(self):
        lat = make_lattice("t", "a", [[("b", -1.0), ("a", -1.0)]])
        assert [c.token for c in lat.positions[0]] == ["a", "b"]


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
        assert [(c.token, c.logp) for c in out.positions[0]] == [("甲", -0.0005)]

    def test_below_minimum_discarded(self):
        lat = lat_of("a", [[("a", -1.0), ("b", -12.0)]])
        out = prune(lat, PruneConfig())
        assert [c.token for c in out.positions[0]] == ["a"]

    def test_survivor_rule_keeps_top(self):
        lat = lat_of("a", [[("a", -13.0), ("b", -14.0)]])
        out = prune(lat, PruneConfig())
        assert [(c.token, c.logp) for c in out.positions[0]] == [("a", -13.0)]

    def test_boundary_equal_values_kept_unfixed(self):
        lat = lat_of("a", [[("a", -0.001), ("b", -11.0)]])
        out = prune(lat, PruneConfig())
        assert [c.token for c in out.positions[0]] == ["a", "b"]

    def test_k_truncation(self):
        lat = lat_of("a", [[("a", -1.0), ("b", -2.0), ("c", -3.0)]])
        out = prune(lat, PruneConfig(k=2))
        assert [c.token for c in out.positions[0]] == ["a", "b"]

    def test_disabled_config_is_identity(self):
        rng = random.Random(5)
        for _ in range(30):
            lat = random_lattice(rng)
            assert prune(lat, PruneConfig.disabled()) == lat

    @given(st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_never_empties_and_idempotent(self, seed):
        rng = random.Random(seed)
        lat = random_lattice(rng)
        once = prune(lat, PruneConfig())
        assert all(len(p) >= 1 for p in once.positions)
        assert prune(once, PruneConfig()) == once


class TestGreedyPath:
    def test_argmax_path(self):
        lat = lat_of("xyz", [[("a", -0.5), ("x", -1.0)], [("b", -0.5)], [("c", -0.5)]])
        p = greedy_path(lat)
        assert p.tokens == "abc"
        assert p.raw_score == pytest.approx(-1.5)

    def test_single_position(self):
        lat = lat_of("x", [[("x", -0.5)]])
        p = greedy_path(lat)
        assert (p.tokens, p.raw_score) == ("x", -0.5)

    def test_matches_exhaustive_max(self):
        rng = random.Random(9)
        for _ in range(30):
            lat = random_lattice(rng, max_n=3, max_k=2)
            p = greedy_path(lat)
            best = max(
                itertools.product(*lat.positions),
                key=lambda combo: sum(c.logp for c in combo),
            )
            assert p.raw_score == pytest.approx(sum(c.logp for c in best))

    def test_empty_position_is_contract_violation(self):
        lat = Lattice("x", "a", ((),))
        with pytest.raises(LatticeError):
            greedy_path(lat)


class TestPathCount:
    def test_unpruned_is_k_to_the_n(self):
        lat = lat_of(
            "abc",
            [[("a", -1.0), ("x", -2.0)], [("b", -1.0), ("y", -2.0)], [("c", -1.0), ("z", -2.0)]],
        )
        pc = candidate_path_count(lat)
        assert pc.count == 8
        assert pc.log_count == pytest.approx(math.log(8))

    def test_fully_fixed_is_one(self):
        lat = lat_of("ab", [[("a", -0.0001), ("x", -2.0)], [("b", -0.0001)]])
        assert candidate_path_count(lat, PruneConfig()).count == 1

    def test_known_product(self):
        lat = lat_of(
            "abc",
            [
                [("a", -1.0), ("x", -2.0), ("w", -3.0)],
                [("b", -1.0), ("y", -2.0)],
                [("c", -1.0), ("z", -2.0)],
            ],
        )
        assert candidate_path_count(lat).count == 12
