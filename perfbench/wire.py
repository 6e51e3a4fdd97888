"""A minimal JSON-lines client for the feedback protocol.

Blocking sockets multiplexed with ``selectors``: requests may be
pipelined on a connection (the server answers each line in order), and
replies from several connections are read as they arrive, each stamped
with the ``perf_counter`` instant its last byte was read -- before any
JSON decoding, so client-side parsing never counts as server latency.
"""

from __future__ import annotations

import json
import selectors
import socket
import time
from collections import deque


class WireError(RuntimeError):
    """The connection failed, closed or timed out."""


class Reply:
    """One reply line, decoded on first use (after the timing is taken).

    ``sent`` is when its request started to go out and ``at`` when the
    reply's last byte was read, both ``perf_counter`` seconds.
    """

    __slots__ = ("raw", "size", "sent", "at", "_body")

    def __init__(self, raw: bytes, sent: float, at: float):
        self.raw = raw
        self.size = len(raw) + 1
        self.sent = sent
        self.at = at
        self._body = None

    @property
    def rtt_ms(self) -> float:
        return (self.at - self.sent) * 1e3

    @property
    def body(self) -> dict:
        if self._body is None:
            self._body = json.loads(self.raw)
        return self._body


class Conn:
    """One protocol connection with its queue of unanswered requests."""

    def __init__(self, port: int, timeout: float):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.timeout = timeout
        self._buffer = bytearray()
        #: ``(callback, sent_at)`` of unanswered requests, in send order.
        self.pending: "deque" = deque()

    def send(self, request: dict, on_reply) -> float:
        """Queue ``request``; ``on_reply(reply)`` runs when it is answered."""
        data = json.dumps(request).encode() + b"\n"
        self.sock.settimeout(self.timeout)
        try:
            sent_at = time.perf_counter()
            self.sock.sendall(data)
        except OSError as exc:
            raise WireError(f"send failed: {exc}") from exc
        finally:
            self.sock.setblocking(False)
        self.pending.append((on_reply, sent_at))
        return sent_at

    def _read(self) -> list[tuple[bytes, float]]:
        try:
            chunk = self.sock.recv(1 << 20)
        except BlockingIOError:
            return []
        except OSError as exc:
            raise WireError(f"receive failed: {exc}") from exc
        at = time.perf_counter()
        if not chunk:
            raise WireError("server closed the connection")
        self._buffer += chunk
        lines = []
        while True:
            end = self._buffer.find(b"\n")
            if end < 0:
                return lines
            lines.append((bytes(self._buffer[:end]), at))
            del self._buffer[:end + 1]

    def close(self) -> None:
        self.sock.close()


def drain(conns: list[Conn], timeout: float) -> None:
    """Read until every request on ``conns`` is answered.

    Replies are dispatched to their callbacks in arrival order, and a
    callback may send the connection's next request.  Raises
    :class:`WireError` when no byte arrives for ``timeout`` seconds.
    """
    selector = selectors.DefaultSelector()
    try:
        for conn in conns:
            selector.register(conn.sock, selectors.EVENT_READ, conn)
        while any(c.pending for c in conns):
            events = selector.select(timeout)
            if not events:
                raise WireError(f"no reply within {timeout} s")
            for key, _ in events:
                conn = key.data
                for line, at in conn._read():
                    if not conn.pending:
                        raise WireError("reply without a request")
                    on_reply, sent_at = conn.pending.popleft()
                    on_reply(Reply(line, sent_at, at))
    finally:
        selector.close()
