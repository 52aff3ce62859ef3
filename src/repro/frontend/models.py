"""Pydantic request/response models for the HTTP frontend.

The KV service stores ``int -> bytes``; JSON carries text, so values
travel as strings plus an ``encoding`` tag (``utf8`` for human-readable
payloads, ``base64`` for arbitrary bytes).  :func:`encode_value` /
:func:`decode_value` are the single conversion points, used by the app
and by tests that need byte-exact round-trips for the linearizability
checker.

Every request body is validated by a model here.  The answer of
``POST /kv/batch`` has none: it can carry 1024 results, so the app
builds them as plain dicts and writes them with ``pydantic_core.to_json``,
the serialiser behind a model's ``model_dump_json()`` (same keys in the
same order, same bytes).
"""

import base64
import binascii
from typing import List, Literal, Optional

from pydantic import BaseModel, ConfigDict, Field

#: Write modes accepted by ``PUT /kv/{key}``.  ``insert`` and ``update``
#: map to exactly one replicated command (what the linearizability probes
#: use); ``upsert`` is the convenience mode (update, then insert on miss —
#: two commands, not atomic).
WriteMode = Literal["upsert", "insert", "update"]


class PutValueRequest(BaseModel):
    """Body of ``PUT /kv/{key}``."""

    model_config = ConfigDict(extra="forbid")

    value: str
    encoding: Literal["utf8", "base64"] = "utf8"
    mode: WriteMode = "upsert"


class ValueResponse(BaseModel):
    """Body of a successful ``GET /kv/{key}``."""

    key: int
    value: str
    encoding: Literal["utf8", "base64"]


class WriteResponse(BaseModel):
    """Acknowledgement of a completed KV write."""

    key: int
    applied: Literal["insert", "update", "delete"]


class BatchOp(BaseModel):
    """One operation inside ``POST /kv/batch``."""

    model_config = ConfigDict(extra="forbid")

    op: Literal["read", "insert", "update", "delete"]
    key: int
    value: Optional[str] = None
    encoding: Literal["utf8", "base64"] = "utf8"


class BatchRequest(BaseModel):
    """Body of ``POST /kv/batch`` — pipelined onto the multicast in one go."""

    model_config = ConfigDict(extra="forbid")

    ops: List[BatchOp] = Field(min_length=1, max_length=1024)


class FileWriteRequest(BaseModel):
    """Body of ``PUT /fs/file/{path}``."""

    model_config = ConfigDict(extra="forbid")

    data: str
    encoding: Literal["utf8", "base64"] = "utf8"
    offset: int = Field(default=0, ge=0)
    #: Create the file first when it does not exist yet (two commands).
    create: bool = True


class HealthResponse(BaseModel):
    status: Literal["ok", "degraded"]
    runtime: str
    live_replicas: int
    num_replicas: int


def encode_value(value, encoding="utf8"):
    """Decode a wire string into the service's ``bytes`` payload.

    Raises ``ValueError`` on malformed base64 (the app maps it to 422).
    """
    if encoding == "base64":
        try:
            return base64.b64decode(value.encode("ascii"), validate=True)
        except (binascii.Error, UnicodeEncodeError) as exc:
            raise ValueError(f"invalid base64 payload: {exc}") from None
    return value.encode("utf-8")


def decode_value(data):
    """Encode a service ``bytes`` payload for the wire.

    Returns ``(text, encoding)`` — UTF-8 when the bytes decode cleanly,
    base64 otherwise (checkpoint-seeded values are raw ``\\x00`` runs).
    """
    if data is None:
        return None, None
    if isinstance(data, str):
        return data, "utf8"
    raw = bytes(data)
    try:
        text = raw.decode("utf-8")
        if text.encode("utf-8") == raw:
            return text, "utf8"
    except UnicodeDecodeError:
        pass
    return base64.b64encode(raw).decode("ascii"), "base64"
