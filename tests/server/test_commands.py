"""Tests for the command processor."""

import numpy as np
import pytest

from repro.core import (
    DataTypePlugin,
    FeatureMeta,
    ObjectSignature,
    SimilaritySearchEngine,
    SketchParams,
)
from repro.server import CommandProcessor, ProtocolError, parse_command


@pytest.fixture()
def processor():
    meta = FeatureMeta(4, np.zeros(4), np.ones(4))
    engine = SimilaritySearchEngine(
        DataTypePlugin("t", meta), SketchParams(128, meta, seed=0)
    )
    rng = np.random.default_rng(0)
    proc = CommandProcessor(engine)
    for i in range(20):
        oid = engine.insert(ObjectSignature(rng.random((2, 4)), [1, 1]))
        proc.register_attributes(oid, {"parity": "even" if i % 2 == 0 else "odd"})
    return proc


def run(proc, line):
    return proc.execute(parse_command(line))


class TestBasicCommands:
    def test_ping(self, processor):
        assert run(processor, "ping") == ["pong"]

    def test_count(self, processor):
        assert run(processor, "count") == ["20"]

    def test_stat_contains_ratio(self, processor):
        lines = run(processor, "stat")
        assert any(line.startswith("compression_ratio") for line in lines)
        assert any(line == "objects 20" for line in lines)

    def test_unknown_command(self, processor):
        with pytest.raises(ProtocolError):
            run(processor, "frobnicate")


class TestQueryCommand:
    def test_basic_query(self, processor):
        lines = run(processor, "query 0 top=5")
        assert len(lines) <= 5
        oid, dist = lines[0].split()
        assert oid.isdigit()
        float(dist)

    def test_self_excluded_by_default(self, processor):
        lines = run(processor, "query 3 top=20 method=brute_force_original")
        assert all(line.split()[0] != "3" for line in lines)

    def test_self_included_on_request(self, processor):
        lines = run(processor, "query 3 top=20 self=yes method=brute_force_original")
        assert lines[0].split()[0] == "3"

    def test_method_selection(self, processor):
        for method in ("filtering", "brute_force_sketch", "brute_force_original"):
            assert run(processor, f"query 0 top=3 method={method}")

    def test_attr_restriction(self, processor):
        lines = run(processor, "query 0 top=20 attr=parity:even method=brute_force_original")
        ids = [int(line.split()[0]) for line in lines]
        assert all(i % 2 == 0 for i in ids)

    def test_unknown_object(self, processor):
        with pytest.raises(ProtocolError):
            run(processor, "query 999")

    def test_bad_object_id(self, processor):
        with pytest.raises(ProtocolError):
            run(processor, "query abc")

    def test_missing_arg(self, processor):
        with pytest.raises(ProtocolError):
            run(processor, "query")

    def test_bad_attr_expr(self, processor):
        with pytest.raises(ProtocolError):
            run(processor, 'query 0 attr="(unbalanced"')


class TestQueryManyCommand:
    def test_matches_single_queries(self, processor):
        batched = run(processor, "querymany 0,5,9 top=4")
        singles = []
        for index, oid in enumerate((0, 5, 9)):
            singles.extend(
                f"{index} {line}" for line in run(processor, f"query {oid} top=4")
            )
        assert batched == singles

    def test_single_id_batch(self, processor):
        lines = run(processor, "querymany 7 top=3")
        assert lines
        assert all(line.split()[0] == "0" for line in lines)

    def test_attr_restriction(self, processor):
        lines = run(processor, "querymany 0,2 top=20 attr=parity:even")
        assert all(int(line.split()[1]) % 2 == 0 for line in lines)

    def test_self_included_on_request(self, processor):
        lines = run(processor, "querymany 3 top=20 self=yes method=brute_force_original")
        assert lines[0].split()[:2] == ["0", "3"]

    def test_unknown_object(self, processor):
        with pytest.raises(ProtocolError):
            run(processor, "querymany 0,999")

    def test_bad_ids(self, processor):
        with pytest.raises(ProtocolError):
            run(processor, "querymany 1,abc")
        with pytest.raises(ProtocolError):
            run(processor, "querymany ,")
        with pytest.raises(ProtocolError):
            run(processor, "querymany")


class TestShardRestriction:
    """``mod=S residue=a,b,...``: the objects of several shards at once."""

    SHARDS_1_2 = [i for i in range(20) if i % 4 in (1, 2)]

    @staticmethod
    def ids(lines, column=0):
        return sorted(int(line.split()[column]) for line in lines)

    def test_residue_list_keeps_the_listed_shards(self, processor):
        sig = run(processor, "getsig 0")[0]
        every = "top=20 method=brute_force_original mod=4 residue=1,2"
        assert self.ids(run(processor, f"query 0 {every}")) == self.SHARDS_1_2
        assert self.ids(
            run(processor, f"querysigmany {sig} exclude=0 {every}"), column=1
        ) == self.SHARDS_1_2
        assert self.ids(
            run(processor, f"querysigmany {sig},{sig} {every}"), column=1
        ) == sorted(self.SHARDS_1_2 * 2)
        assert self.ids(
            run(processor, f"querymany 0,3 {every}"), column=1
        ) == sorted(self.SHARDS_1_2 * 2)

    def test_countmod_takes_a_list(self, processor):
        assert run(processor, "countmod 4 1,2") == [str(len(self.SHARDS_1_2))]
        assert run(processor, "countmod 4 0,1,2,3") == ["20"]

    @pytest.mark.parametrize(
        "residue", ["", "1,1", "x", "1,,2", "1.5", "4", "-1"],
        ids=["empty", "duplicate", "non-integer", "blank-entry", "float",
             "too-large", "negative"],
    )
    def test_bad_residue_answers_protocol_error(self, processor, residue):
        sig = run(processor, "getsig 0")[0]
        for line in (
            f'query 0 mod=4 residue="{residue}"',
            f'querysigmany {sig} mod=4 residue="{residue}"',
            f'countmod 4 "{residue}"',
        ):
            with pytest.raises(ProtocolError):
                run(processor, line)

    def test_bad_modulus_answers_protocol_error(self, processor):
        for line in ("query 0 mod=0 residue=0", "countmod x 0", "countmod 0 0"):
            with pytest.raises(ProtocolError):
                run(processor, line)


class TestAttrCommands:
    def test_attrquery(self, processor):
        lines = run(processor, "attrquery parity:odd")
        assert len(lines) == 10
        assert all(int(line) % 2 == 1 for line in lines)

    def test_attrquery_boolean(self, processor):
        lines = run(processor, "attrquery parity:odd OR parity:even")
        assert len(lines) == 20

    def test_attrs_dump(self, processor):
        lines = run(processor, "attrs 2")
        assert lines == ["parity=even"]

    def test_attrquery_empty_expr(self, processor):
        with pytest.raises(ProtocolError):
            run(processor, "attrquery")


class TestSetParam:
    def test_set_candidates(self, processor):
        run(processor, "setparam candidates_per_segment 7")
        assert processor.engine.filter_params.candidates_per_segment == 7

    def test_set_threshold_none(self, processor):
        run(processor, "setparam threshold_fraction none")
        assert processor.engine.filter_params.threshold_fraction is None

    def test_set_num_query_segments(self, processor):
        run(processor, "setparam num_query_segments 2")
        assert processor.engine.filter_params.num_query_segments == 2

    def test_unknown_param(self, processor):
        with pytest.raises(ProtocolError):
            run(processor, "setparam nope 1")

    def test_rank_cascade_toggle(self, processor):
        assert processor.engine.rank_params.cascade is True
        assert run(processor, "setparam rank_cascade off") == [
            "rank_cascade=off"
        ]
        assert processor.engine.rank_params.cascade is False
        run(processor, "setparam rank_cascade on")
        assert processor.engine.rank_params.cascade is True

    def test_rank_bound_toggles(self, processor):
        run(processor, "setparam rank_rowcol_bound off")
        params = processor.engine.rank_params
        assert params.rowcol_bound is False
        assert params.cascade is True  # untouched knob keeps its value

    def test_centroid_bound_param_is_unknown(self, processor):
        # The centroid bound was deleted: its switch is refused like
        # any unknown name and changes nothing.
        before = processor.engine.rank_params
        with pytest.raises(ProtocolError, match="unknown parameter"):
            run(processor, "setparam rank_centroid_bound off")
        assert processor.engine.rank_params == before

    def test_rank_toggle_rejects_non_flag(self, processor):
        with pytest.raises(ProtocolError):
            run(processor, "setparam rank_cascade maybe")

    def test_stat_reports_rank_lines(self, processor):
        run(processor, "query 0 top=3")
        lines = run(processor, "stat")
        assert any(line == "rank_cascade on" for line in lines)
        assert any(line.startswith("rank_prune_rate ") for line in lines)
        evals = [l for l in lines if l.startswith("rank_exact_evals ")]
        assert evals and int(evals[0].split()[1]) >= 1
        assert any(
            line.startswith("rank_lower_bound_prunes ") for line in lines
        )


class TestQueryFallbackScope:
    def test_non_lsh_bug_is_not_masked_by_fallback(self, processor, monkeypatch):
        calls = []

        def boom(*args, **kwargs):
            calls.append(1)
            raise RuntimeError("ranking bug")

        monkeypatch.setattr(processor.engine, "query_many", boom)
        with pytest.raises(RuntimeError):
            run(processor, "query 0 top=3")
        assert len(calls) == 1  # the query was not silently re-executed
