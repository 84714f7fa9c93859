"""Half-up decimal rounding for presentation.

All internal math runs at full precision; values are rounded half-up to
DECIMALS places only when rendered, so 1.125 displays as "1.13" regardless
of the platform's banker's rounding.  Every finite float renders exactly:
the rounding context is wide enough for the 309 integer digits of the
largest double.
"""

from __future__ import annotations

from decimal import ROUND_HALF_UP, Context, Decimal

DECIMALS = 2
_QUANTUM = Decimal(1).scaleb(-DECIMALS)
_CONTEXT = Context(prec=310 + DECIMALS)


def round_half_up(value: float) -> float:
    return float(format_fixed(value))


def format_fixed(value: float) -> str:
    return str(Decimal(str(value)).quantize(_QUANTUM, rounding=ROUND_HALF_UP, context=_CONTEXT))
