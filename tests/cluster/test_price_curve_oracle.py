"""The prefix-sum price integral against the segment walk it replaced.

``PriceCurve`` builds its break-point times, per-segment prefix sums and
full-period integral once, then answers ``integral`` with a bisection.  The
oracle below is the straightforward version: every call walks every segment
from the start of the curve.  The two must agree with ``==`` on random
curves with and without a period, on random spans, and on spans that end
exactly on a break point or a period boundary.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.market import PRICE_CURVES, PriceCurve, gpu_cost
from repro.errors import ConfigurationError


# ---------------------------------------------------------------------- #
# Oracle
# ---------------------------------------------------------------------- #
def oracle_span_integral(curve, start, end):
    times = tuple(float(t) for t, _ in curve.points)
    total = 0.0
    for index, (_, multiplier) in enumerate(curve.points):
        seg_start = times[index]
        seg_end = times[index + 1] if index + 1 < len(times) else float("inf")
        lo = max(start, seg_start)
        hi = min(end, seg_end)
        if hi > lo:
            total += float(multiplier) * (hi - lo)
    return total


def oracle_integral(curve, start, end):
    if end <= start:
        return 0.0
    if start < 0.0:
        raise ConfigurationError(f"price integral from negative time {start}")
    if curve.period is None:
        return oracle_span_integral(curve, start, end)

    def cumulative(t):
        cycles, offset = divmod(t, curve.period)
        return cycles * oracle_span_integral(curve, 0.0, curve.period) + oracle_span_integral(
            curve, 0.0, offset
        )

    return cumulative(end) - cumulative(start)


# ---------------------------------------------------------------------- #
# Random curves and spans
# ---------------------------------------------------------------------- #
times_ = st.floats(1e-3, 5000.0, allow_nan=False, allow_infinity=False)
multipliers = st.floats(1e-3, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def curves(draw):
    gaps = draw(st.lists(times_, min_size=0, max_size=6))
    points, t = [(0.0, draw(multipliers))], 0.0
    for gap in gaps:
        t += gap
        points.append((t, draw(multipliers)))
    period = None
    if draw(st.booleans()):
        period = t + draw(times_)
    return PriceCurve("random", tuple(points), period=period)


@st.composite
def spans(draw, curve):
    """A span whose ends are free, on a break point, or on a period boundary."""
    breaks = [float(t) for t, _ in curve.points]
    if curve.period is not None:
        breaks.append(float(curve.period))
    cycles = st.integers(0, 50) if curve.period is not None else st.just(0)

    def instant():
        free = st.floats(0.0, 2e5, allow_nan=False, allow_infinity=False)
        aligned = st.builds(
            lambda k, b: k * curve.period + b if curve.period is not None else b,
            cycles,
            st.sampled_from(breaks),
        )
        return st.one_of(free, aligned)

    a, b = draw(instant()), draw(instant())
    return (a, b) if draw(st.booleans()) else (b, a)


class TestIntegralOracle:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_integral_matches_the_segment_walk(self, data):
        curve = data.draw(curves())
        for _ in range(5):
            start, end = data.draw(spans(curve))
            assert curve.integral(start, end) == oracle_integral(curve, start, end)

    @pytest.mark.parametrize("name", sorted(PRICE_CURVES))
    def test_presets_match_on_a_grid_of_spans(self, name):
        curve = PRICE_CURVES[name]
        instants = [0.0, 0.5, 899.999, 900.0, 1800.0, 3599.0, 3600.0, 7200.0, 10_000.25]
        for start in instants:
            for end in instants:
                assert curve.integral(start, end) == oracle_integral(curve, start, end)
                cost = gpu_cost("a6000", 3, start, end, curve)
                if end > start:
                    assert cost == 1.10 / 3600.0 * 3 * oracle_integral(curve, start, end)

    def test_integer_points_and_period(self):
        curve = PriceCurve("ints", ((0, 2), (10, 3)), period=25)
        assert curve.integral(3, 61) == oracle_integral(curve, 3, 61)
        plain = PriceCurve("ints", ((0, 2), (10, 3)))
        assert plain.integral(3, 61) == oracle_integral(plain, 3, 61)

    def test_tables_stay_outside_the_fields(self):
        curve = PRICE_CURVES["spot"]
        assert curve == PriceCurve.from_dict(curve.to_dict())
        assert hash(curve) == hash(PriceCurve.from_dict(curve.to_dict()))
        assert "_prefix" not in repr(curve)

    def test_negative_start_raises(self):
        with pytest.raises(ConfigurationError, match="negative time"):
            PRICE_CURVES["spot"].integral(-1.0, 5.0)
