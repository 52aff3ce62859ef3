"""Unit tests for the frontend's wire <-> ``bytes`` value conversions."""

import pytest

from repro.frontend.models import decode_value, encode_value


def test_utf8_text_round_trips():
    text, encoding = decode_value(encode_value("héllo"))
    assert (text, encoding) == ("héllo", "utf8")


def test_non_utf8_bytes_travel_as_base64():
    raw = b"\x00\xff\x10"
    text, encoding = decode_value(raw)
    assert encoding == "base64"
    assert encode_value(text, encoding) == raw


def test_missing_value_decodes_to_none():
    assert decode_value(None) == (None, None)


def test_str_payload_passes_through_as_utf8():
    assert decode_value("already text") == ("already text", "utf8")


@pytest.mark.parametrize("payload", ["not base64!", "abc", "ü"])
def test_malformed_base64_raises_value_error(payload):
    with pytest.raises(ValueError):
        encode_value(payload, "base64")
