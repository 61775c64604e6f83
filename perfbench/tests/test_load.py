"""Open-loop latency runs from each request's due time."""

import json
import socketserver
import threading
import time

import pytest

from perfbench import load
from perfbench.inputs import Request

STALL_S = 0.15


class _StallingEcho(socketserver.StreamRequestHandler):
    """JSON-lines echo whose first reply on a connection stalls."""

    def handle(self):
        for n, line in enumerate(self.rfile):
            if n == 0:
                time.sleep(STALL_S)
            payload = json.loads(line)
            self.wfile.write(json.dumps({"ok": True, "echo": payload["i"]})
                             .encode() + b"\n")
            self.wfile.flush()


class _Server(socketserver.ThreadingTCPServer):
    daemon_threads = True


@pytest.fixture
def server():
    srv = _Server(("127.0.0.1", 0), _StallingEcho)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv.server_address
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_open_loop_charges_a_stall_to_the_requests_behind_it(server):
    host, port = server
    connection = load.Connection(host, port, 0)
    try:
        schedule = [Request(0.02 * i, 0, {"op": "score", "i": i})
                    for i in range(4)]
        records = load.open_loop([connection], schedule)
    finally:
        connection.close()
    assert [r.reply["echo"] for r in records] == [0, 1, 2, 3]
    # The generator kept to the schedule ...
    assert all(0 <= r.late < 0.01 for r in records)
    assert [round(r.due - records[0].due, 3) for r in records] == \
        [0.0, 0.02, 0.04, 0.06]
    # ... so the later requests were sent on time yet waited behind the
    # stalled first reply; timing from the due time shows that wait.
    for record in records:
        assert record.latency >= STALL_S - (record.due - records[0].due) - 0.005
        assert record.latency >= record.done - record.sent
    assert records[3].latency > 0.07
    assert records[3].done - records[3].sent > 0.07 - 0.01


def test_closed_loop_keeps_one_request_in_flight(server):
    host, port = server
    connections = [load.Connection(host, port, i) for i in range(2)]
    counter = iter(range(10**6))
    try:
        records, span = load.closed_loop(
            connections, lambda: {"op": "score", "i": next(counter)}, 0.3)
    finally:
        for connection in connections:
            connection.close()
    assert all(r.ok for r in records)
    assert span >= 0.3
    for index in (0, 1):
        mine = [r for r in records if r.conn == index]
        # Each send waits for the previous reply on that connection.
        assert all(b.sent >= a.done for a, b in zip(mine, mine[1:]))
