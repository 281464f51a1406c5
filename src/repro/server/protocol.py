"""Line-oriented command protocol (section 4.1.4).

The command-line query interface lets web clients and scripts drive the
search engine without restarting it.  The wire format is plain text, one
command per line::

    <command> [positional ...] [key=value ...]

Responses::

    OK <n>          followed by n data lines
    ERR <message>

Values containing spaces are double-quoted; quotes inside values are
backslash-escaped.  Keyword arguments may repeat (e.g. several ``attr=``
pairs on insert).
"""

from __future__ import annotations

import re
import shlex
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

# Keyword-argument keys must look like identifiers; anything else with an
# '=' (attribute comparisons like "n>=8") stays a positional argument.
_KWARG_KEY_RE = re.compile(r"^[A-Za-z][A-Za-z0-9._-]*$")

__all__ = [
    "Command",
    "ProtocolError",
    "DegradedError",
    "parse_command",
    "parse_top_k",
    "parse_querymany_ids",
    "format_ok",
    "format_error",
    "quote",
]


class ProtocolError(ValueError):
    """Malformed protocol line."""


class DegradedError(ProtocolError):
    """The command failed because a server component is degraded.

    Serialized as ``ERR DEGRADED <reason>`` — a *structured* error
    clients can distinguish from bad-request failures (the resilient
    client raises :class:`~repro.server.client.ServerDegraded` for it).
    """

    def __init__(self, reason: str) -> None:
        super().__init__(f"DEGRADED {reason.splitlines()[0] if reason else 'unknown'}")
        self.reason = reason


@dataclass
class Command:
    """A parsed command line."""

    name: str
    args: List[str] = field(default_factory=list)
    kwargs: List[Tuple[str, str]] = field(default_factory=list)

    def kwargs_dict(self) -> Dict[str, str]:
        """Last-wins view of the keyword arguments."""
        return dict(self.kwargs)

    def get(self, key: str, default: str = None) -> str:
        for k, v in reversed(self.kwargs):
            if k == key:
                return v
        return default

    def get_all(self, key: str) -> List[str]:
        return [v for k, v in self.kwargs if k == key]


def parse_top_k(command: Command) -> int:
    """The ``top=`` keyword: a positive result count, 10 if absent.

    A non-integer or non-positive value is a bad request
    (:class:`ProtocolError`), not an engine fault.
    """
    raw = command.get("top", "10")
    try:
        top_k = int(raw)
    except ValueError:
        top_k = 0  # rejected below, with the same message
    if top_k <= 0:
        raise ProtocolError(f"bad top {raw!r}: expected a positive integer")
    return top_k


def parse_querymany_ids(command: Command, usage: str) -> List[int]:
    """The one argument of ``querymany``: comma-separated object ids,
    at least one.  Both front ends take this syntax; a malformed list
    is a :class:`ProtocolError` (``usage`` when the argument count is
    wrong)."""
    if len(command.args) != 1:
        raise ProtocolError(usage)
    try:
        object_ids = [int(t) for t in command.args[0].split(",") if t != ""]
    except ValueError:
        raise ProtocolError(f"bad object ids {command.args[0]!r}") from None
    if not object_ids:
        raise ProtocolError("querymany needs at least one object id")
    return object_ids


def _is_plain(line: str) -> bool:
    """True for printable ASCII with no quote or backslash: a line on
    which ``shlex.split`` and ``str.split`` give the same tokens."""
    return (
        line.isascii()
        and line.isprintable()
        and '"' not in line
        and "'" not in line
        and "\\" not in line
    )


def parse_command(line: str) -> Command:
    """Parse one protocol line into a :class:`Command`.

    A plain line (:func:`_is_plain`) splits on spaces; any other line
    goes through ``shlex``, which lexes one character at a time in
    Python and would dominate the parse of a long base64
    ``querysigmany`` line.
    """
    line = line.strip()
    if not line:
        raise ProtocolError("empty command")
    if _is_plain(line):
        tokens = line.split()
    else:
        try:
            tokens = shlex.split(line)
        except ValueError as exc:
            raise ProtocolError(f"bad quoting: {exc}") from exc
    name = tokens[0].lower()
    command = Command(name)
    for token in tokens[1:]:
        if "=" in token:
            key, _, value = token.partition("=")
            # Only identifier-shaped keys become keyword arguments; other
            # '='-bearing tokens (e.g. the attribute comparison "n>=8")
            # stay positional.
            if _KWARG_KEY_RE.match(key):
                command.kwargs.append((key.lower(), value))
                continue
            if not key:
                raise ProtocolError(f"empty key in {token!r}")
        command.args.append(token)
    return command


def quote(value: str) -> str:
    """Quote a value for inclusion in a protocol line if needed.

    Quotes whenever the value contains shell-significant characters or
    anything non-printable: ``str.strip`` treats several control
    characters (\x1c-\x1f) as whitespace even though ``shlex`` does
    not, so bare non-printables would be eaten at the line level.
    """
    if value and value.isprintable() and all(c not in value for c in " \"'\\"):
        return value
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def format_ok(lines: List[str]) -> str:
    """Serialize a success response (header + data lines)."""
    return "\n".join([f"OK {len(lines)}"] + lines) + "\n"


def format_error(message: str) -> str:
    return f"ERR {message.splitlines()[0] if message else 'unknown error'}\n"
