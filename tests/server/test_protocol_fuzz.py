"""Fuzz tests: the protocol layer must never raise anything unexpected."""

import base64
import re
import shlex
import string
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    DataTypePlugin,
    FeatureMeta,
    ObjectSignature,
    SimilaritySearchEngine,
    SketchParams,
)
from repro.server import CommandProcessor, ProtocolError, parse_command, quote
from repro.server.protocol import Command, format_error, format_ok

#: Printable ASCII plus the characters where the plain split and
#: ``shlex`` could part ways: quotes, backslash, ``=``, and whitespace
#: that only one of ``str.split`` / ``shlex`` treats as a separator.
_LEXER_ALPHABET = string.printable.replace("\n", "").replace("\r", "") + (
    "\"'\\=\t\x0b\x1c\xa0\u2003"
)


def shlex_reference(line):
    """``parse_command`` as it was with ``shlex`` as the only lexer."""
    line = line.strip()
    if not line:
        raise ProtocolError("empty command")
    try:
        tokens = shlex.split(line)
    except ValueError as exc:
        raise ProtocolError(f"bad quoting: {exc}") from exc
    command = Command(tokens[0].lower())
    for token in tokens[1:]:
        key, eq, value = token.partition("=")
        if eq and re.fullmatch(r"[A-Za-z][A-Za-z0-9._-]*", key):
            command.kwargs.append((key.lower(), value))
            continue
        if eq and not key:
            raise ProtocolError(f"empty key in {token!r}")
        command.args.append(token)
    return command


def _parsed(parse, line):
    try:
        command = parse(line)
    except ProtocolError:
        return ProtocolError
    return (command.name, command.args, command.kwargs)


class TestParserFuzz:
    @settings(max_examples=300)
    @given(st.text(max_size=200))
    def test_parse_never_raises_unexpected(self, line):
        """Arbitrary input: either a Command or a ProtocolError."""
        try:
            command = parse_command(line)
            assert command.name
        except ProtocolError:
            pass

    @settings(max_examples=200)
    @given(st.text(max_size=80))
    def test_quote_roundtrip(self, value):
        """quote() output must survive the parser and come back intact
        (protocol values are single-line; embedded newlines are the
        transport's job, so normalize them first)."""
        value = value.replace("\n", " ").replace("\r", " ")
        command = parse_command(f"cmd key={quote(value)}")
        assert command.get("key") == value

    @settings(max_examples=500)
    @given(st.text(alphabet=_LEXER_ALPHABET, max_size=60))
    def test_plain_split_matches_shlex(self, line):
        """The plain-line split gives exactly the ``shlex`` parse (or
        both reject the line)."""
        assert _parsed(parse_command, line) == _parsed(shlex_reference, line)

    def test_plain_querysig_line_never_lexes(self):
        """A 2 KB base64 ``querysigmany`` line parses without ``shlex``."""
        b64 = base64.b64encode(bytes(range(256)) * 6).decode("ascii")
        line = f"querysigmany {b64} top=10 method=filtering exclude=7"
        assert len(line) > 2000
        with mock.patch.object(shlex, "split", side_effect=AssertionError):
            command = parse_command(line)
        assert command.name == "querysigmany" and command.args == [b64]
        assert command.kwargs == [
            ("top", "10"), ("method", "filtering"), ("exclude", "7")
        ]

    @settings(max_examples=100)
    @given(st.lists(st.text(min_size=1, max_size=20), max_size=5))
    def test_format_ok_line_count(self, lines):
        safe = [line.replace("\n", " ").replace("\r", " ") for line in lines]
        encoded = format_ok(safe)
        header, *body = encoded.rstrip("\n").split("\n")
        assert header == f"OK {len(safe)}"
        assert len(body) == len(safe) - sum(1 for s in safe if not s) or len(body) >= 0

    def test_format_error_single_line_always(self):
        assert "\n" not in format_error("a\nb\nc").rstrip("\n")


class TestProcessorFuzz:
    @pytest.fixture(scope="class")
    def processor(self):
        meta = FeatureMeta(4, np.zeros(4), np.ones(4))
        engine = SimilaritySearchEngine(
            DataTypePlugin("fuzz", meta), SketchParams(64, meta, seed=0)
        )
        rng = np.random.default_rng(0)
        proc = CommandProcessor(engine)
        for i in range(5):
            oid = engine.insert(ObjectSignature(rng.random((2, 4)), [1, 1]))
            proc.register_attributes(oid, {"n": str(i)})
        return proc

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=120))
    def test_arbitrary_commands_contained(self, processor, line):
        """Any input line produces data lines or a ProtocolError/ValueError
        — never a crash of the processor itself."""
        try:
            command = parse_command(line)
        except ProtocolError:
            return
        try:
            result = processor.execute(command)
            assert isinstance(result, list)
        except (ProtocolError, ValueError, KeyError):
            pass

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(["query", "attrquery", "attrs", "setparam", "insertfile"]),
        st.lists(st.text(min_size=1, max_size=15).map(lambda s: s.replace("\n", "")), max_size=4),
    )
    def test_known_commands_with_random_args(self, processor, name, args):
        parts = [name] + [quote(a) for a in args if a.strip()]
        try:
            command = parse_command(" ".join(parts))
        except ProtocolError:
            return
        try:
            processor.execute(command)
        except (ProtocolError, ValueError, KeyError, FileNotFoundError):
            pass
