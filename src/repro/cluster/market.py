"""Spot-market pricing for simulated fleets.

Production GPU fleets rarely pay a flat rate: spot markets reprice
capacity hour by hour, and cost-aware planners exploit the troughs.
This module models that with :class:`PriceCurve` — a deterministic step
function mapping simulation time to a $/GPU-hour *multiplier* over the
per-server base rates in :data:`GPU_HOURLY_RATES`.  The cluster
simulator integrates the curve over every attempt's wall-clock span to
charge each job its exact spot cost, which feeds the ``cost_per_job``
SLO analytics and tune objectives.

Curves are pure data (tuples of ``(start_second, multiplier)`` break
points), so they hash into store keys and replay byte-identically.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.config import ConfigurationError

#: Cloud-style hourly rates per server class (USD per GPU-hour) at a 1.0
#: multiplier.  Shared with the tune cost objectives.
GPU_HOURLY_RATES: Dict[str, float] = {
    "a6000": 1.10,
    "2080ti": 0.35,
}


@dataclass(frozen=True)
class PriceCurve:
    """A right-continuous step function of price multipliers over time.

    ``points`` holds ``(start_second, multiplier)`` break points; the
    first must start at 0, times must strictly increase and every number
    must be finite.  With a ``period`` the curve repeats (spot markets
    cycle daily); without one the final multiplier holds forever.
    """

    name: str
    points: Tuple[Tuple[float, float], ...]
    period: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("price curve name must be non-empty")
        if not self.points:
            raise ConfigurationError("price curve needs at least one point")
        times = [float(t) for t, _ in self.points]
        numbers = times + [float(m) for _, m in self.points]
        if self.period is not None:
            numbers.append(float(self.period))
        if not all(math.isfinite(number) for number in numbers):
            raise ConfigurationError(
                f"price curve {self.name!r} break points, multipliers and period "
                "must be finite"
            )
        if times[0] != 0.0:
            raise ConfigurationError(
                f"price curve {self.name!r} must start at t=0, got t={times[0]}"
            )
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigurationError(
                f"price curve {self.name!r} break points must strictly increase"
            )
        if any(float(m) <= 0.0 for _, m in self.points):
            raise ConfigurationError(
                f"price curve {self.name!r} multipliers must be positive"
            )
        if self.period is not None and float(self.period) <= times[-1]:
            raise ConfigurationError(
                f"price curve {self.name!r} period must exceed its last break point"
            )
        # Lookup tables, built once and kept outside the dataclass fields:
        # ``_prefix[k]`` is the integral from 0 to break point k, summed
        # segment by segment in order, and ``_full`` the integral over one
        # whole period.
        multipliers = tuple(float(m) for _, m in self.points)
        prefix = [0.0]
        for index in range(len(times) - 1):
            prefix.append(prefix[-1] + multipliers[index] * (times[index + 1] - times[index]))
        object.__setattr__(self, "_times", tuple(times))
        object.__setattr__(self, "_multipliers", multipliers)
        object.__setattr__(self, "_prefix", tuple(prefix))
        if self.period is not None:
            object.__setattr__(self, "_full", self._cumulative_in_period(float(self.period)))

    def _cumulative_in_period(self, offset: float) -> float:
        """``∫ multiplier dt`` over ``[0, offset]``, ``offset`` within one period.

        The prefix sum up to the break point at or before ``offset`` plus
        the partial segment: the same additions, in the same order, as
        walking every segment from 0.
        """
        index = bisect_right(self._times, offset) - 1
        return self._prefix[index] + self._multipliers[index] * (offset - self._times[index])

    def _span_integral(self, start: float, end: float) -> float:
        """Integrate a span of a non-repeating curve (``0 <= start < end``).

        Walks the segments from the one holding ``start`` to the last one
        starting before ``end``.
        """
        times, multipliers = self._times, self._multipliers
        total = 0.0
        for index in range(bisect_right(times, start) - 1, len(times)):
            seg_start = times[index]
            if seg_start >= end:
                break
            seg_end = times[index + 1] if index + 1 < len(times) else float("inf")
            lo = max(start, seg_start)
            hi = min(end, seg_end)
            if hi > lo:
                total += multipliers[index] * (hi - lo)
        return total

    def integral(self, start: float, end: float) -> float:
        """``∫ multiplier(t) dt`` over ``[start, end]`` in seconds."""
        if end <= start:
            return 0.0
        if start < 0.0:
            raise ConfigurationError(f"price integral from negative time {start}")
        if self.period is None:
            return self._span_integral(start, end)

        def cumulative(t: float) -> float:
            cycles, offset = divmod(t, self.period)
            return cycles * self._full + self._cumulative_in_period(offset)

        return cumulative(end) - cumulative(start)

    def to_dict(self) -> dict:
        payload: dict = {
            "name": self.name,
            "points": [[float(t), float(m)] for t, m in self.points],
        }
        if self.period is not None:
            payload["period"] = float(self.period)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "PriceCurve":
        return cls(
            name=str(payload["name"]),
            points=tuple((float(t), float(m)) for t, m in payload["points"]),
            period=float(payload["period"]) if payload.get("period") is not None else None,
        )


def gpu_cost(
    server: str,
    gpus: int,
    start: float,
    end: float,
    curve: Optional[PriceCurve] = None,
) -> float:
    """USD charged for ``gpus`` GPUs of ``server`` held over ``[start, end]``.

    Without a curve the flat :data:`GPU_HOURLY_RATES` rate applies; with
    one, the spot multiplier is integrated over the span so jobs that
    straddle a price spike pay for it.
    """
    if server not in GPU_HOURLY_RATES:
        raise ConfigurationError(
            f"no hourly rate for server {server!r}; known: {sorted(GPU_HOURLY_RATES)}"
        )
    if end <= start:
        return 0.0
    seconds = curve.integral(start, end) if curve is not None else end - start
    return GPU_HOURLY_RATES[server] / 3600.0 * gpus * seconds


#: Named presets.  Periods are compressed to simulation timescales (fleet
#: runs span minutes-to-hours of simulated time, not wall-clock days).
PRICE_CURVES: Dict[str, PriceCurve] = {
    "flat": PriceCurve("flat", ((0.0, 1.0),)),
    "diurnal": PriceCurve(
        "diurnal",
        ((0.0, 0.7), (1800.0, 1.0), (3600.0, 1.4), (5400.0, 1.0)),
        period=7200.0,
    ),
    "spot": PriceCurve(
        "spot",
        ((0.0, 0.6), (900.0, 1.5), (1800.0, 0.9), (2700.0, 1.8)),
        period=3600.0,
    ),
}


def parse_price_curve(spec: Optional[str]) -> Optional[PriceCurve]:
    """Resolve a CLI/API price-curve spec.

    Accepts ``None`` (no pricing), a preset name from
    :data:`PRICE_CURVES`, or a custom shorthand of comma-separated
    ``time:multiplier`` break points with an optional trailing
    ``@period``, e.g. ``"0:0.8,600:1.5,1200:1.0@3600"``.
    """
    if spec is None or not spec.strip():
        return None
    text = spec.strip()
    if text in PRICE_CURVES:
        return PRICE_CURVES[text]
    body, _, period_text = text.partition("@")
    try:
        points = []
        for chunk in body.split(","):
            time_text, _, mult_text = chunk.strip().partition(":")
            points.append((float(time_text), float(mult_text)))
        period = float(period_text) if period_text else None
    except ValueError as error:
        raise ConfigurationError(
            f"bad price curve {spec!r} (expected preset "
            f"{sorted(PRICE_CURVES)} or 't:mult,...[@period]'): {error}"
        ) from None
    return PriceCurve(name=text, points=tuple(points), period=period)
