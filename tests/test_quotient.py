import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubewrap.quotient import (
    LineIntervalSet,
    circle_distance,
    preimage_affine_mod,
    reduce,
)


def total_length(w):
    """The summed length of the intervals of W, a `LineIntervalSet`."""
    return float(sum(b - a for a, b in w.intervals))


# Targets at scale 1 where start + 1 - 1 rounds one ulp past the start.
FULL_CIRCLE_TARGETS = (0.4632352941176471, 0.5, 0.46710526315789474)


def w_grid_oracle(t: float, c: float, step: float = 1e-3):
    """Brute-force membership oracle for the affine-mod preimage: a grid
    height P1 is a member iff some grid offset p2 satisfies the
    congruence c*P1 + p2 = t (mod c) up to half a grid step."""
    P1 = np.arange(1, int(round(1 / step))) * step
    s = np.mod(t - c * P1, c)
    p2_grid = np.clip(np.round(s / step) * step, step, 1 - step)
    d = np.minimum(np.abs(s - p2_grid), c - np.abs(s - p2_grid))
    return P1, d <= step / 2 + 1e-12


def w_arc_reference(t: float, c: float):
    """W by the general arc path: the arc of start (t - 1)/c and length
    1/c on R/Z, reduced, unrolled into line pieces, clipped to (0, 1),
    fragments of 1e-15 or less dropped, and overlapping pieces merged
    (pieces that only touch stay split)."""
    s = reduce((t - 1.0) / c, 1.0)
    e = s + 1.0 / c
    pieces = [(s, e)] if e <= 1.0 else [(s, 1.0), (0.0, min(e - 1.0, s))]
    out = []
    for a, b in sorted(pieces):
        a, b = max(a, 0.0), min(b, 1.0)
        if b - a <= 1e-15:
            continue
        if out and a < out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return tuple(out)


class TestReduce:
    def test_already_in_range(self):
        assert reduce(1.25, 2) == 1.25

    def test_single_wrap(self):
        assert reduce(-0.75, 1) == pytest.approx(0.25)

    def test_multiple_wraps(self):
        # floor arithmetic: 7.5 - 2*floor(7.5/2) = 7.5 - 6
        assert reduce(7.5, 2) == pytest.approx(1.5)

    def test_invalid_period(self):
        for period in (0.0, -2.0, float("nan")):
            with pytest.raises(ValueError, match="period must be positive"):
                reduce(1.0, period)

    def test_snap_near_period(self):
        assert reduce(1.0 - 1e-17, 1.0) == 0.0

    @given(
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(1e-3, 1e3, allow_nan=False),
    )
    @settings(max_examples=500)
    def test_idempotent(self, x, L):
        r = reduce(x, L)
        assert 0 <= r < L
        assert reduce(r, L) == r

    def test_idempotent_bulk(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            x = rng.uniform(-100, 100)
            L = rng.uniform(1e-2, 10)
            r = reduce(x, L)
            assert reduce(r, L) == r


class TestCircleDistance:
    def test_mod_1_is_bit_identical_to_np_mod(self):
        # Normal samples, then differences that are exactly ±0, ±1e-300,
        # ±1 or an integer away from a point.
        rng = np.random.default_rng(32)
        x = rng.normal(scale=3.0, size=100_008)
        y = rng.normal(scale=3.0, size=100_008)
        x[-8:] = [0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 2.25, -0.75]
        y[-8:] = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25, 0.25]
        d = np.mod(x - y, 1.0)
        ref = np.minimum(d, 1.0 - d)
        got = circle_distance(x, y)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        # −1e-300 reduces to 1 − 1e-300, which rounds to 1.0: distance 0
        assert got[-8:].tolist() == [0.0, 0.0, 1e-300, 0.0, 0.0, 0.0, 0.0, 0.0]

    def test_broadcasts_against_several_angles(self):
        got = circle_distance(np.array([[0.05], [0.95]]), np.array([0.125, 0.875]))
        assert np.allclose(got, [[0.075, 0.175], [0.175, 0.075]], rtol=0, atol=1e-15)


class TestLineIntervalSet:
    def test_total_length(self):
        s = LineIntervalSet(((0.0, 0.25), (0.75, 1.0)))
        assert total_length(s) == 0.5


class TestPreimageAffineMod:
    def test_two_interval_case(self):
        w = preimage_affine_mod(reduce(0.5, 2.0), 2.0)
        assert w.intervals == ((0.0, 0.25), (0.75, 1.0))
        assert total_length(w) == pytest.approx(0.5, abs=1e-15)

    def test_one_interval_case(self):
        w = preimage_affine_mod(reduce(1.5, 2.0), 2.0)
        assert w.intervals == ((0.25, 0.75),)
        assert total_length(w) == pytest.approx(0.5, abs=1e-15)

    def test_c_equals_one(self):
        w = preimage_affine_mod(reduce(0.5, 1.0), 1.0)
        assert w.intervals == ((0.0, 0.5), (0.5, 1.0))
        assert total_length(w) == pytest.approx(1.0, abs=1e-15)

    def test_wrap_point_at_boundary_single_interval(self):
        # Target at 0: the arc boundary coincides with the clip edge and
        # a single interval comes out, no zero-length fragment.
        w = preimage_affine_mod(reduce(0.0, 2.0), 2.0)
        assert len(w.intervals) == 1
        assert total_length(w) == pytest.approx(0.5, abs=1e-12)

    def test_full_circle_preimage_keeps_excluded_point(self):
        # scale 1: the preimage is the full interval minus one point, and
        # the split must survive the wrap arithmetic (start + 1 - 1 can
        # round one ulp past the start and silently merge the pieces)
        for t in FULL_CIRCLE_TARGETS:
            w = preimage_affine_mod(reduce(t, 1.0), 1.0)
            assert len(w.intervals) == 2
            assert w.intervals[0][1] == w.intervals[1][0]
            assert not w.contains_many(w.intervals[0][1])

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            preimage_affine_mod(reduce(0.5, 0.5), 0.5)

    def test_total_length_random(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            c = rng.uniform(1, 10)
            t = rng.uniform(0, c)
            w = preimage_affine_mod(reduce(t, c), c)
            assert abs(total_length(w) - 1 / c) < 1e-12
            assert len(w.intervals) in (1, 2)

    def test_agrees_with_grid_oracle(self):
        rng = np.random.default_rng(4)
        step = 1e-3
        for _ in range(100):
            c = rng.uniform(1, 10)
            t = rng.uniform(0, c)
            w = preimage_affine_mod(reduce(t, c), c)
            P1, oracle = w_grid_oracle(t, c, step)
            analytic = w.contains_many(P1)
            # interior analytic points must be accepted by the oracle
            interior = np.zeros(P1.shape, dtype=bool)
            for a, b in w.intervals:
                interior |= (P1 > a + step) & (P1 < b - step)
            assert not np.any(interior & ~oracle)
            # oracle acceptances lie within one grid step of the set
            near = w.contains_many(P1) | w.contains_many(P1 - step) | w.contains_many(P1 + step)
            assert not np.any(oracle & ~near)

    @given(
        t=st.floats(0.0, 1e3, allow_nan=False),
        c=st.floats(1.0, 1e3, allow_nan=False),
    )
    @example(t=0.0, c=2.0)
    @example(t=0.0, c=1.0)
    @example(t=float(np.nextafter(2.0, 0.0)), c=2.0)
    @example(t=float(np.nextafter(np.pi, 0.0)), c=np.pi)
    @example(t=float(np.nextafter(1.0, 0.0)), c=2.0)
    @example(t=float(np.nextafter(1.0, 2.0)), c=2.0)
    @example(t=float(np.nextafter(1.0, 0.0)), c=1.0)
    @example(t=FULL_CIRCLE_TARGETS[0], c=1.0)
    @example(t=FULL_CIRCLE_TARGETS[1], c=1.0)
    @example(t=FULL_CIRCLE_TARGETS[2], c=1.0)
    @settings(max_examples=2000, deadline=None)
    def test_equals_arc_reference(self, t, c):
        target = reduce(t, c)
        w = preimage_affine_mod(target, c)
        bits = [x.hex() for iv in w.intervals for x in iv]
        assert bits == [x.hex() for iv in w_arc_reference(target, c) for x in iv]
