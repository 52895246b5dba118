"""Shared helpers for the test suite."""

import math


def quoted_ok(value: float, quoted: float, digits: int, truncated: bool = False) -> bool:
    """Whether a value matches a decimal quoted to ``digits`` places.

    A rounded quote must agree within half a unit of its last digit,
    0.5 * 10**-digits.  A quote printed with a trailing ellipsis is a
    truncation, so the value must lie in [quoted, quoted + 10**-digits).
    """
    unit = 10.0 ** (-digits)
    if truncated:
        return quoted <= value < quoted + unit
    return abs(value - quoted) <= 0.5 * unit


def assert_quoted(value: float, quoted: float, digits: int, truncated: bool = False):
    """Assert :func:`quoted_ok`."""
    how = "truncate" if truncated else "round"
    assert quoted_ok(value, quoted, digits, truncated), (
        f"{value} does not {how} to the quoted {quoted} at {digits} digits")


def log_ratio(r: float) -> float:
    s = math.sqrt(r)
    return math.log((1.0 + s) / (1.0 - s))
