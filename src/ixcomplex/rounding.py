"""Half-up decimal rounding for presentation.

All internal math runs at full precision; values are rounded half-up to two
decimals only when rendered, so 1.125 displays as "1.13" regardless of the
platform's banker's rounding.  Every finite float renders exactly: the
rounding context is wide enough for the 309 integer digits of the largest
double.
"""

from __future__ import annotations

from decimal import ROUND_HALF_UP, Context, Decimal


def round_half_up(value: float, ndigits: int = 2) -> float:
    return float(format_fixed(value, ndigits))


def format_fixed(value: float, ndigits: int = 2) -> str:
    quantum = Decimal(1).scaleb(-ndigits)
    context = Context(prec=310 + ndigits)
    return str(Decimal(str(value)).quantize(quantum, rounding=ROUND_HALF_UP, context=context))
