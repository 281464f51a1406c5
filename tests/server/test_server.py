"""End-to-end tests for the TCP server + client."""

import numpy as np
import pytest

from repro.core import (
    DataTypePlugin,
    FeatureMeta,
    ObjectSignature,
    SimilaritySearchEngine,
    SketchParams,
)
from repro.observability import metrics as _metrics
from repro.server import ClientError, CommandProcessor, FerretClient, serve_background


@pytest.fixture()
def served():
    meta = FeatureMeta(4, np.zeros(4), np.ones(4))
    engine = SimilaritySearchEngine(
        DataTypePlugin("t", meta), SketchParams(128, meta, seed=0)
    )
    rng = np.random.default_rng(1)
    proc = CommandProcessor(engine)
    for i in range(15):
        oid = engine.insert(ObjectSignature(rng.random((2, 4)), [1, 1]))
        proc.register_attributes(oid, {"bucket": str(i % 3)})
    server = serve_background(proc)
    host, port = server.server_address
    yield host, port, engine
    server.shutdown()
    server.server_close()


class TestClientServer:
    def test_ping_and_count(self, served):
        host, port, _ = served
        with FerretClient(host, port) as client:
            assert client.ping()
            assert client.count() == 15

    def test_query_roundtrip(self, served):
        host, port, engine = served
        with FerretClient(host, port) as client:
            results = client.query(0, top=5, method="brute_force_original")
            assert len(results) == 5
            # Compare against a direct engine query.
            direct = engine.query_by_id(
                0, top_k=5, exclude_self=True,
                method=__import__("repro.core", fromlist=["SearchMethod"]).SearchMethod.BRUTE_FORCE_ORIGINAL,
            )
            assert [r.object_id for r in direct] == [oid for oid, _ in results]

    def test_querymany_matches_single_queries(self, served):
        host, port, _ = served
        with FerretClient(host, port) as client:
            batch = client.querymany([0, 0, 5], top=4)
            assert batch == [client.query(oid, top=4) for oid in (0, 0, 5)]
            assert client.send("querymany 1,2 top=3")[0].startswith("0 ")

    def test_querymany_fills_groups_by_position(self, served):
        host, port, _ = served
        with FerretClient(host, port) as client:
            # The first seed found nothing: its list stays empty and the
            # second seed's answer stays in second place.
            client.send = lambda line, timeout=None: ["1 4 0.5"]
            assert client.querymany([7, 8]) == [[], [(4, 0.5)]]

    def test_attrquery(self, served):
        host, port, _ = served
        with FerretClient(host, port) as client:
            ids = client.attrquery("bucket:0")
            assert ids == [0, 3, 6, 9, 12]

    def test_query_with_attr_filter(self, served):
        host, port, _ = served
        with FerretClient(host, port) as client:
            results = client.query(0, top=10, attr="bucket:1")
            assert all(oid % 3 == 1 for oid, _ in results)

    def test_error_surfaced(self, served):
        host, port, _ = served
        with FerretClient(host, port) as client:
            with pytest.raises(ClientError):
                client.query(12345)

    @pytest.mark.parametrize("top", ["abc", "0", "-1"])
    def test_bad_top_is_a_bad_request(self, served, top):
        host, port, _ = served
        unhandled = _metrics.counter("server.unhandled_errors")
        before = unhandled.value
        with FerretClient(host, port) as client:
            sig = client.send("getsig 0")[0]
            for line in (
                f"query 0 top={top}",
                f"querymany 0,1 top={top}",
                f"querysigmany {sig} top={top}",
                f"querysigmany {sig},{sig} top={top}",
                f"queryfile no-such-file.dat top={top}",
            ):
                with pytest.raises(ClientError, match="bad top"):
                    client.send(line)
            assert client.ping()
        assert unhandled.value == before

    def test_stat(self, served):
        host, port, _ = served
        with FerretClient(host, port) as client:
            stats = client.stat()
            assert stats["objects"] == "15"

    def test_set_param(self, served):
        host, port, engine = served
        with FerretClient(host, port) as client:
            client.set_param("candidates_per_segment", "9")
        assert engine.filter_params.candidates_per_segment == 9

    def test_multiple_clients(self, served):
        host, port, _ = served
        clients = [FerretClient(host, port) for _ in range(4)]
        try:
            for c in clients:
                assert c.count() == 15
        finally:
            for c in clients:
                c.close()

    def test_connection_survives_error(self, served):
        host, port, _ = served
        with FerretClient(host, port) as client:
            with pytest.raises(ClientError):
                client.send("bogus command")
            assert client.ping()  # connection still usable
