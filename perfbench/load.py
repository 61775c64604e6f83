"""Load generator for serve-mixed, over the daemon's real TCP socket.

One generator thread sends every request; one reader thread per
connection timestamps the replies.  The daemon answers a connection's
requests in order, so each reader matches replies to sends FIFO.

* :func:`open_loop` sends each request at its due time whether or not
  earlier ones were answered (independent users).  Latency is measured
  from the due time, so a stall also charges the requests queued behind
  it; :attr:`Sent.late` is how late the generator itself was.
* :func:`closed_loop` sends a connection's next request as soon as its
  previous reply arrives (callers that wait), which measures capacity.
"""

from __future__ import annotations

import json
import queue
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass


@dataclass
class Sent:
    """One request's life on the wire (``perf_counter`` seconds)."""

    payload: dict
    conn: int
    due: float
    seq: int = 0
    sent: float = 0.0
    done: float = 0.0
    reply: dict | None = None

    @property
    def op(self) -> str:
        return self.payload["op"]

    @property
    def latency(self) -> float:
        """Due time to reply: what an open-loop user waits."""
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due

    @property
    def ok(self) -> bool:
        return self.reply is not None and self.reply.get("ok") is True


class Connection:
    """A pipelined JSON-lines connection with its own reader thread."""

    def __init__(self, host: str, port: int, index: int):
        self.index = index
        self.sock = socket.create_connection((host, port), timeout=20)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.port = self.sock.getsockname()[1]
        #: Where the reader announces an idle connection (closed loop).
        self.ready: queue.Queue | None = None
        self.seq = 0
        self._pending: deque[Sent] = deque()
        self._idle = threading.Condition()
        self.error: BaseException | None = None
        self._reader = threading.Thread(target=self._read, daemon=True,
                                        name=f"reader-{index}")
        self._reader.start()

    def send(self, record: Sent, line: bytes) -> None:
        self.seq += 1
        record.seq = self.seq
        with self._idle:
            self._pending.append(record)
        record.sent = time.perf_counter()
        self.sock.sendall(line)

    def _read(self) -> None:
        try:
            with self.sock.makefile("rb") as replies:
                for line in replies:
                    done = time.perf_counter()
                    with self._idle:
                        record = self._pending.popleft()
                        record.done = done
                        record.reply = json.loads(line)
                        if not self._pending:
                            self._idle.notify_all()
                    if self.ready is not None:
                        self.ready.put(self)
        except (OSError, ValueError, IndexError) as exc:
            self.error = exc
        finally:
            with self._idle:
                self._idle.notify_all()

    def drain(self, timeout: float) -> bool:
        """Wait until every sent request has its reply."""
        with self._idle:
            return self._idle.wait_for(
                lambda: not self._pending or self.error is not None
                or not self._reader.is_alive(), timeout=timeout) \
                and not self._pending

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self._reader.join(timeout=10)


def _line(payload: dict) -> bytes:
    return json.dumps(payload).encode() + b"\n"


def open_loop(connections: list[Connection], schedule) -> list[Sent]:
    """Send ``schedule`` (due offsets in s, connection, payload) on time."""
    lines = [_line(request.payload) for request in schedule]
    started = time.perf_counter() + 0.01
    records = []
    for request, line in zip(schedule, lines):
        due = started + request.due
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        record = Sent(request.payload, request.conn, due)
        connections[request.conn].send(record, line)
        records.append(record)
    for connection in connections:
        connection.drain(timeout=20)
    return records


def closed_loop(connections: list[Connection], next_payload,
                seconds: float) -> tuple[list[Sent], float]:
    """Keep one request in flight per connection for ``seconds``.

    Returns the records and the measured span (first send to last
    reply).
    """
    ready: queue.Queue = queue.Queue()
    for connection in connections:
        connection.ready = ready
    records = []
    started = time.perf_counter()
    deadline = started + seconds
    for connection in connections:
        ready.put(connection)
    try:
        while True:
            connection = ready.get(timeout=20)
            if time.perf_counter() >= deadline:
                break
            payload = next_payload()
            record = Sent(payload, connection.index, time.perf_counter())
            connection.send(record, _line(payload))
            records.append(record)
        for connection in connections:
            connection.drain(timeout=20)
    finally:
        for connection in connections:
            connection.ready = None
    finished = max((r.done for r in records), default=started)
    return records, finished - started
