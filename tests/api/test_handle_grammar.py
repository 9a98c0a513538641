"""One handle grammar: every parser reads a daemon handle's options alike.

``daemon_socket_path``, ``tcp_daemon_address``, ``daemon_endpoint`` and
``portable_handle`` all parse a daemon handle through one option table,
so a value one of them can read, each of them reads, and a value one of
them refuses, each of them refuses — wherever the handle is parsed,
not only when it is dialled.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.api import (
    InvalidHandleError,
    daemon_endpoint,
    daemon_socket_path,
    portable_handle,
    tcp_daemon_address,
)
from repro.api import resolver

#: ``(scheme, address text, parsed address, the scheme's own parser)``.
SCHEMES = [
    ("repro", "d.sock", "d.sock", daemon_socket_path),
    ("repro+tcp", "127.0.0.1:7707", ("127.0.0.1", 7707), tcp_daemon_address),
]

#: ``(option, text, the value daemon_endpoint dials with)``.
READABLE = [
    ("timeout", "2.5", 2.5),
    ("retries", "0", 0),
    ("retries", "7", 7),
    ("backoff", "0.25", 0.25),
    ("deadline", "3", 3.0),
    ("tracing", "1", True),
    ("tracing", "Off", False),
]

UNREADABLE = [
    ("timeout", "soon"),
    ("timeout", "0"),
    ("timeout", "nan"),
    ("retries", "-1"),
    ("retries", "2.5"),
    ("backoff", "-0.1"),
    ("backoff", "inf"),
    ("deadline", ""),
    ("tracing", "maybe"),
]


def dialled(option, endpoint):
    """The value ``option`` set in a ``daemon_endpoint`` answer."""
    _, timeout, retry, tracing = endpoint
    if option == "timeout":
        return timeout
    if option == "tracing":
        return tracing
    return getattr(retry, option)


def parsers(parse_address):
    return {
        "address": parse_address,
        "daemon_endpoint": daemon_endpoint,
        "portable_handle": portable_handle,
    }


@pytest.mark.parametrize(
    "scheme, body, address, parse_address", SCHEMES,
    ids=[scheme for scheme, *_ in SCHEMES],
)
class TestEveryParserReadsOneTable:
    @pytest.mark.parametrize("option, text, value", READABLE)
    def test_a_readable_value_is_read_alike(
        self, scheme, body, address, parse_address, option, text, value,
        tmp_path, monkeypatch,
    ):
        monkeypatch.chdir(tmp_path)
        handle = f"{scheme}://{body}?{option}={text}"
        assert parse_address(handle) == address
        endpoint = daemon_endpoint(handle)
        assert endpoint[0] == address
        assert dialled(option, endpoint) == value
        portable = portable_handle(handle)
        if scheme == "repro":
            assert portable == f"repro://{tmp_path / body}?{option}={text}"
        else:
            assert portable == handle
        assert daemon_endpoint(portable)[1:] == endpoint[1:]

    @pytest.mark.parametrize("parser", ["address", "daemon_endpoint",
                                        "portable_handle"])
    @pytest.mark.parametrize("option, text", UNREADABLE)
    def test_an_unreadable_value_is_refused_alike(
        self, scheme, body, address, parse_address, option, text, parser,
    ):
        handle = f"{scheme}://{body}?{option}={text}"
        with pytest.raises(InvalidHandleError, match=f"option {option}="):
            parsers(parse_address)[parser](handle)

    @pytest.mark.parametrize("parser", ["address", "daemon_endpoint",
                                        "portable_handle"])
    def test_unknown_and_repeated_options_are_refused_alike(
        self, scheme, body, address, parse_address, parser,
    ):
        parse = parsers(parse_address)[parser]
        unknown = f"unknown {re.escape(scheme)}://"
        with pytest.raises(InvalidHandleError, match=unknown):
            parse(f"{scheme}://{body}?compression=zstd")
        with pytest.raises(InvalidHandleError, match="given twice"):
            parse(f"{scheme}://{body}?timeout=1&timeout=2")


def test_the_documented_option_table_is_the_resolvers():
    """``docs/api.md`` lists each option with what a readable value
    is, in the words the resolver's errors use."""
    text = (Path(__file__).parents[2] / "docs" / "api.md").read_text()
    documented = {
        (scheme, option): readable.strip()
        for option, schemes, readable in re.findall(
            r"^\| `(\w+)` \| ([^|]+) \| ([^|]+) \|", text, re.MULTILINE
        )
        for scheme in re.findall(r"`([\w+]+)://`", schemes)
    }
    table = {
        (scheme, option): readable
        for scheme, options in resolver._OPTIONS.items()
        for option, (_, readable) in options.items()
    }
    assert documented == table
