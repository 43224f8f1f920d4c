"""JSON helpers shared across modules: exact integers, decimal strings past 2^63-1."""

from __future__ import annotations

_I64_MAX = 2 ** 63 - 1


def json_int(v: int) -> int | str:
    """Integers stay integers while they fit in 64 bits, else decimal strings."""
    return v if -_I64_MAX <= v <= _I64_MAX else str(v)
