"""Virtual clock with exact rational timestamps."""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from ..errors import ClockModeViolation

Seconds = Union[int, Fraction]


def as_fraction(value) -> Fraction:
    """``value`` as an exact Fraction; one that already is one is returned
    as it is, since building a Fraction from a Fraction costs as much as
    the arithmetic on it."""
    return value if isinstance(value, Fraction) else Fraction(value)


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
