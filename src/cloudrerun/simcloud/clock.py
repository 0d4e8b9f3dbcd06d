"""Virtual clock with exact rational timestamps."""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Union

from ..errors import ClockModeViolation

Seconds = Union[int, Fraction]

# The decimal exponent that ends a rational text, as ``Fraction`` reads it.
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def as_fraction(value) -> Fraction:
    """``value`` as an exact Fraction; one that already is one is returned
    as it is, since building a Fraction from a Fraction costs as much as
    the arithmetic on it.  ``Fraction`` builds ``10 ** exponent`` for a text
    such as ``1e10000000``, so a text whose exponent is above the int-digit
    limit (``sys.get_int_max_str_digits()``, 0 for none) raises ValueError first."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str) and (exponent := _EXPONENT.search(value)):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
        if limit and abs(int(exponent[1])) > limit:
            raise ValueError(f"the exponent of {value!r} exceeds the {limit}-digit limit for integers")
    return Fraction(value)


class VirtualClock:
    """Deterministic monotonic clock, advanced only explicitly.

    Time is an exact Fraction of seconds so that durations and costs
    derived from it admit exact arithmetic.
    """

    def __init__(self) -> None:
        self._now = Fraction(0)

    def now(self) -> Fraction:
        return self._now

    def advance_to(self, timestamp: Seconds) -> Fraction:
        timestamp = as_fraction(timestamp)
        if timestamp < self._now:
            raise ClockModeViolation(
                f"cannot move the clock backwards (now={self._now}, target={timestamp})"
            )
        self._now = timestamp
        return self._now
