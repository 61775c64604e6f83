"""Wire protocol of the serving daemon: JSON lines over a local socket.

One request is one JSON object on one line (``\\n``-terminated); the
daemon answers with one JSON object on one line.  Replies always carry
``"ok"``; failures add ``"code"`` (HTTP-flavoured: 400 bad request,
404 unknown session/tenant, 429 overloaded, 500 internal) and
``"error"``.  The framing is trivially stdlib (``makefile`` +
``json``), language-agnostic, and newline-safe because ``json.dumps``
escapes embedded newlines.
"""

from __future__ import annotations

import json

#: Failure codes, HTTP-flavoured so clients can pattern-match familiar
#: semantics (429 in particular is the load-shedding contract).
BAD_REQUEST = 400
NOT_FOUND = 404
OVERLOADED = 429
INTERNAL = 500


def encode(message: dict) -> bytes:
    """One message as a newline-terminated JSON line."""
    return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")


def decode(line: bytes | str) -> dict:
    """Parse one received line into a message dict.

    Raises
    ------
    ValueError
        When the line is not a JSON object.
    """
    message = json.loads(line)
    if not isinstance(message, dict):
        raise ValueError(f"expected a JSON object, got {type(message).__name__}")
    return message


def ok(**fields) -> dict:
    """A success reply."""
    return {"ok": True, **fields}


def error(code: int, message: str, **fields) -> dict:
    """A failure reply carrying an HTTP-flavoured code."""
    return {"ok": False, "code": int(code), "error": str(message), **fields}
