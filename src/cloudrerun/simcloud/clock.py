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
# The most digits ``str()`` writes of an int, 0 for no limit; an interpreter
# without the setting has CPython's default.
_int_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)


def as_fraction(value) -> Fraction:
    """``value`` as an exact Fraction; one that already is one is returned
    as it is, since building a Fraction from a Fraction costs as much as
    the arithmetic on it.  A text is refused with ValueError when its
    numerator or denominator would have more digits than the int-digit
    limit (``sys.get_int_max_str_digits()``, 0 for none), since ``str()``
    of it would raise.  ``Fraction`` builds ``10 ** exponent`` for a text
    such as ``1e10000000``, so a text whose exponent is above the limit is
    refused before that."""
    if isinstance(value, Fraction):
        return value
    if not isinstance(value, str):
        return Fraction(value)
    limit = _int_digit_limit()
    match = _EXPONENT.search(value)
    exponent = abs(int(match[1])) if match else 0
    if limit and exponent > limit:
        raise ValueError(f"the exponent of {value!r} exceeds the {limit}-digit limit for integers")
    fraction = Fraction(value)
    # Neither term has more digits than the text has characters plus its
    # exponent, so only so long a text can pass the limit.
    if limit and len(value) + exponent > limit and max(abs(fraction.numerator), fraction.denominator) >= 10**limit:
        raise ValueError(f"{value!r} has a numerator or denominator of more than {limit} digits")
    return fraction


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
