"""End-to-end daemon tests over a real local socket."""

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.inference import InferenceEngine
from repro.models.serialization import save_detector
from repro.serving import ServingClient, ServingDaemon
from repro.serving import daemon as daemon_module
from repro.serving import protocol
from repro.table import write_csv

from tests.serving.conftest import (
    build_detector,
    encode_cells,
    engine_scores,
    paper_tables,
    wide_prepared,
)


@pytest.fixture
def daemon(detector):
    with ServingDaemon(detector=detector, batch_delay_ms=2.0) as daemon:
        yield daemon


@pytest.fixture
def client(daemon):
    with ServingClient(daemon.host, daemon.port) as client:
        yield client


def load_paper_table(client, session="t"):
    dirty, _ = paper_tables()
    columns = {name: list(dirty.column(name).values)
               for name in dirty.column_names}
    return client.request({"op": "load_table", "session": session,
                           "columns": columns})


class TestRequestReply:
    def test_ping(self, client):
        reply = client.request({"op": "ping"})
        assert set(reply) == {"ok", "uptime_s"}
        assert reply["ok"] is True

    def test_score_matches_direct_engine(self, prepared, client):
        values = ["80,000", "abc", "8000"]
        attribute = prepared.attributes[0]
        reply = client.request({"op": "score", "cells": [
            {"attribute": attribute, "value": v} for v in values]})
        assert reply["ok"] is True
        assert len(reply["flags"]) == len(values)
        assert reply["weights_version"] == 0
        reference = build_detector(prepared)
        engine = InferenceEngine(reference.model)
        features, lengths = encode_cells(reference, values, attribute)
        expected = engine.predict_proba(features, lengths=lengths)
        np.testing.assert_array_equal(np.array(reply["probabilities"]),
                                      expected)
        assert reply["flags"] == list(expected.argmax(axis=1))

    def test_score_validates_cells(self, client, prepared):
        for cells in (None, [], [{"value": "x"}],
                      [{"attribute": "ghost", "value": "x"}]):
            reply = client.request({"op": "score", "cells": cells})
            assert reply["ok"] is False
            assert reply["code"] == protocol.BAD_REQUEST

    def test_unknown_op_and_bad_json(self, daemon, client):
        for op in ("warp", "feedback", ["score"], {"op": "score"}):
            errors = daemon.n_errors
            reply = client.request({"op": op, "session": "t", "row": 0,
                                    "column": "A", "label": 1})
            assert reply["code"] == protocol.BAD_REQUEST
            assert "unknown op" in reply["error"]
            assert daemon.n_errors == errors + 1
        reply = daemon.handle_line(b"{not json\n")
        assert reply["code"] == protocol.BAD_REQUEST

    def test_unhashable_op_keeps_the_connection(self, daemon):
        with socket.create_connection((daemon.host, daemon.port),
                                      timeout=10) as sock, \
                sock.makefile("rb") as replies:
            sock.sendall(b'{"op": ["score"]}\n{"op": "ping"}\n')
            first = protocol.decode(replies.readline())
            second = protocol.decode(replies.readline())
        assert first["code"] == protocol.BAD_REQUEST
        assert second["ok"] is True
        assert daemon.n_errors == 1

    def test_unknown_tenant_is_not_found(self, daemon, client, prepared,
                                         tmp_path):
        path = tmp_path / "v2.npz"
        save_detector(build_detector(prepared, seed=7), path)
        assert load_paper_table(client)["ok"] is True
        requests = [
            {"op": "ping"},
            {"op": "score", "cells": [{"attribute": "A", "value": "1"}]},
            {"op": "load_table", "session": "u",
             "columns": {"A": ["1", "2"]}},
            {"op": "update", "session": "t", "row": 0, "column": "A",
             "value": "x"},
            {"op": "swap_model", "model": str(path)},
            {"op": "stats"},
            {"op": "shutdown"},
        ]
        for request in requests:
            reply = client.request({**request, "tenant": "b"})
            assert reply["ok"] is False, request
            assert reply["code"] == protocol.NOT_FOUND
            assert "'b'" in reply["error"]
        # Nothing was touched: no swap, no session, no edit, no shutdown.
        assert daemon.model.swaps == 0
        assert set(daemon.sessions) == {"t"}
        assert daemon.sessions["t"].values[0] == "21"
        # The one model still answers to its own name.
        assert client.request({"op": "ping", "tenant": "default"})["ok"]

    def test_error_counters(self, daemon, client):
        client.request({"op": "nope"})
        assert daemon.n_errors >= 1


class TestSocketOptions:
    def test_connections_disable_nagle(self, detector, monkeypatch):
        """The accepted (server-side) socket carries TCP_NODELAY, so a
        reply pipelined behind an un-ACKed one is sent at once instead of
        waiting out the client's delayed ACK."""
        seen = []
        handle = daemon_module._Handler.handle

        def recording_handle(self):
            seen.append(self.connection.getsockopt(socket.IPPROTO_TCP,
                                                   socket.TCP_NODELAY))
            handle(self)

        monkeypatch.setattr(daemon_module._Handler, "handle",
                            recording_handle)
        with ServingDaemon(detector=detector) as daemon, \
                ServingClient(daemon.host, daemon.port) as client:
            assert client.request({"op": "ping"})["ok"] is True
        assert len(seen) == 1 and seen[0] != 0


class TestSessions:
    def test_load_table_inline_and_update(self, client):
        reply = load_paper_table(client)
        assert reply["ok"] is True
        assert reply["n_table_rows"] == 5
        assert reply["n_feature_rows"] == 5 * len(reply["columns"])
        assert reply["skipped_columns"] == []
        for item in reply["flagged"]:
            assert set(item) == {"row", "attribute", "value"}

        update = client.request({"op": "update", "session": "t", "row": 0,
                                 "column": reply["columns"][0],
                                 "value": "new"})
        assert update["ok"] is True
        assert update["n_rescored"] == 1
        assert update["full_rescore"] is False

    def test_load_table_from_csv(self, client, tmp_path):
        dirty, _ = paper_tables()
        path = tmp_path / "dirty.csv"
        write_csv(dirty, path)
        reply = client.request({"op": "load_table", "session": "csv",
                                "csv": str(path)})
        assert reply["ok"] is True
        assert reply["n_table_rows"] == 5

    def test_load_table_directory_is_a_bad_request(self, daemon, client,
                                                    tmp_path):
        # An empty directory used to answer 500 (IndexError), a
        # non-empty one 400 "unreadable ([Errno 21] Is a directory)".
        empty = tmp_path / "empty"
        empty.mkdir()
        full = tmp_path / "full"
        full.mkdir()
        write_csv(paper_tables()[0], full / "dirty.csv")
        for path in (empty, full):
            reply = client.request({"op": "load_table", "session": "d",
                                    "path": str(path)})
            assert reply["ok"] is False
            assert reply["code"] == protocol.BAD_REQUEST, reply
            assert reply["error"] == f"{path}: not a file"
        # The connection stays open, and nothing was loaded.
        assert client.request({"op": "ping"})["ok"] is True
        assert daemon.n_errors == 2
        assert daemon.sessions == {}

    def test_unknown_session_is_not_found(self, client):
        reply = client.request({"op": "update", "session": "ghost",
                                "row": 0, "column": "A", "value": "x"})
        assert reply["ok"] is False
        assert reply["code"] == protocol.NOT_FOUND
        assert "ghost" in reply["error"]

    @pytest.mark.parametrize("request_", [
        {"op": "update", "session": "t", "row": "x", "column": "A"},
        {"op": "update", "session": "t", "row": None, "column": "A"},
        {"op": "update", "session": "t", "row": float("inf"), "column": "A"},
        {"op": "update", "session": ["t"], "row": 0, "column": "A"},
        {"op": "load_table", "session": "u", "columns": {"A": 5}},
        {"op": "load_table", "session": "u", "columns": {"A": "abc"}},
        {"op": "load_table", "session": "u",
         "columns": {"A": ["1"], "Sal": ["1", "2"]}},
        {"op": "load_table", "session": "u", "csv": 5},
        {"op": "load_table", "session": "u", "path": ["a.csv"]},
        {"op": "score", "cells": [{"attribute": ["A"], "value": "1"}]},
        {"op": "swap_model", "model": 5},
    ], ids=["row-text", "row-null", "row-inf", "session-list",
            "columns-int", "columns-text", "columns-ragged", "csv-int",
            "path-list", "attribute-list", "model-int"])
    def test_malformed_fields_are_bad_requests(self, daemon, client,
                                               request_):
        assert load_paper_table(client)["ok"] is True
        errors = daemon.n_errors
        reply = client.request(request_)
        assert reply["ok"] is False
        assert reply["code"] == protocol.BAD_REQUEST, reply
        assert daemon.n_errors == errors + 1
        assert set(daemon.sessions) == {"t"}


class TestSwapAndStats:
    def test_swap_model_over_the_wire(self, prepared, client, tmp_path):
        path = tmp_path / "v2.npz"
        save_detector(build_detector(prepared, seed=7), path)
        reply = client.request({"op": "swap_model", "model": str(path)})
        assert reply == {"ok": True, "version": 1, "swaps": 1}
        reply = client.request({"op": "swap_model"})
        assert reply["code"] == protocol.BAD_REQUEST

    def test_stats_reflects_traffic(self, client):
        load_paper_table(client)
        reply = client.request({"op": "stats"})
        assert reply["ok"] is True
        assert reply["requests"]["n_requests"] >= 2
        assert reply["batcher"]["n_batches"] >= 1
        assert "tenants" not in reply
        assert reply["model"]["version"] == 0
        assert reply["model"]["swaps"] == 0
        assert reply["model"]["cache"]["size"] > 0
        assert reply["sessions"]["t"]["n_feature_rows"] > 0


class TestBackpressure:
    def test_admission_bound_returns_429(self, detector):
        daemon = ServingDaemon(detector=detector, max_queue_rows=1)
        try:
            # The batcher thread is not running, so a queued row stays
            # queued: the next request must be shed at the door.
            daemon.batcher.submit(["x"], [detector.prepared.attributes[0]])
            reply = daemon.handle_line(json.dumps(
                {"op": "score",
                 "cells": [{"attribute": detector.prepared.attributes[0],
                            "value": "y"}]}).encode() + b"\n")
            assert reply["ok"] is False
            assert reply["code"] == protocol.OVERLOADED
            assert reply["retry"] is True
            assert daemon.n_rejected == 1
        finally:
            daemon.batcher.start()  # drain the stranded future
            daemon.close()


def score_line(cells):
    return json.dumps({"op": "score", "cells": [
        {"attribute": attribute, "value": value}
        for attribute, value in cells]}).encode() + b"\n"


def wait_until(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.001)


def handle_in_thread(daemon, line):
    """Send ``line`` from a thread; returns the thread and its reply
    list."""
    replies = []
    thread = threading.Thread(
        target=lambda: replies.append(daemon.handle_line(line)))
    thread.start()
    return thread, replies


class TestSwapWindow:
    """A swap that lands between a request's arrival and its batch."""

    CELLS = [("Sal", "80,000"), ("City", "Romr")]

    def test_reply_comes_from_the_model_that_scored_it(self, detector):
        # The new model's dictionaries are 46 characters wide, not 6: a
        # reply must carry its own encoding, network and version.
        wide = build_detector(wide_prepared())
        daemon = ServingDaemon(detector=detector, batch_delay_ms=2.0)
        daemon.batcher.start()
        try:
            with daemon.model.lock:
                thread, replies = handle_in_thread(daemon,
                                                   score_line(self.CELLS))
                wait_until(lambda: daemon.batcher.stats.max_queued_rows
                           == len(self.CELLS))
                daemon.model.swap(detector=wide)
            thread.join(timeout=10)
            assert not thread.is_alive()
        finally:
            daemon.close()
        reply = replies[0]
        assert reply["ok"] is True
        assert reply["weights_version"] == 1
        attributes, values = zip(*self.CELLS)
        want = engine_scores(wide, list(values), list(attributes))
        assert np.array(reply["probabilities"]).tobytes() == want.tobytes()
        assert reply["flags"] == list(want.argmax(axis=1))

    def test_swap_dropping_an_attribute_fails_only_its_request(
            self, detector):
        narrow = build_detector(wide_prepared(without="City"))
        daemon = ServingDaemon(detector=detector, batch_delay_ms=2.0)
        try:
            # The batcher thread starts after both requests are queued
            # and the swap is done, so they share one batch.
            requests = [handle_in_thread(daemon, score_line([cell]))
                        for cell in self.CELLS]
            wait_until(lambda: daemon.batcher.stats.max_queued_rows == 2)
            daemon.model.swap(detector=narrow)
            daemon.batcher.start()
            for thread, _ in requests:
                thread.join(timeout=10)
                assert not thread.is_alive()
        finally:
            daemon.close()
        (_, [scored]), (_, [failed]) = requests
        assert failed["code"] == protocol.BAD_REQUEST
        assert "never saw attribute 'City'" in failed["error"]
        assert scored["ok"] is True
        assert scored["weights_version"] == 1
        want = engine_scores(narrow, ["80,000"], ["Sal"])
        assert np.array(scored["probabilities"]).tobytes() == want.tobytes()
        assert daemon.batcher.stats.n_batches == 1


class TestShutdown:
    def test_shutdown_op_stops_the_daemon(self, detector):
        daemon = ServingDaemon(detector=detector).start()
        with ServingClient(daemon.host, daemon.port) as client:
            reply = client.request({"op": "shutdown"})
            assert reply["ok"] is True
            assert reply["stopping"] is True
            # The internal reply-then-drop marker is framing, not
            # protocol: it must never be serialized onto the wire.
            assert "_close" not in reply
        daemon.shutdown()
        with pytest.raises(OSError):
            ServingClient(daemon.host, daemon.port).connect()
