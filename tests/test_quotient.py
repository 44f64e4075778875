import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubewrap.quotient import (
    CircleIntervalSet,
    InvalidPeriodError,
    LineIntervalSet,
    complement,
    preimage_affine_mod,
    reduce,
)


def w_grid_oracle(t: float, c: float, step: float = 1e-3):
    """Brute-force membership oracle for the affine-mod preimage: a grid
    height P1 is a member iff some grid offset p2 satisfies the
    congruence c*P1 + p2 = t (mod c) up to half a grid step."""
    P1 = np.arange(1, int(round(1 / step))) * step
    s = np.mod(t - c * P1, c)
    p2_grid = np.clip(np.round(s / step) * step, step, 1 - step)
    d = np.minimum(np.abs(s - p2_grid), c - np.abs(s - p2_grid))
    return P1, d <= step / 2 + 1e-12


class TestReduce:
    def test_already_in_range(self):
        assert reduce(1.25, 2).representative == 1.25

    def test_single_wrap(self):
        assert reduce(-0.75, 1).representative == pytest.approx(0.25)

    def test_multiple_wraps(self):
        # floor arithmetic: 7.5 - 2*floor(7.5/2) = 7.5 - 6
        assert reduce(7.5, 2).representative == pytest.approx(1.5)

    def test_invalid_period(self):
        with pytest.raises(InvalidPeriodError):
            reduce(1.0, 0.0)
        with pytest.raises(InvalidPeriodError):
            reduce(1.0, -2.0)

    def test_snap_near_period(self):
        assert reduce(1.0 - 1e-17, 1.0).representative == 0.0

    @given(
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(1e-3, 1e3, allow_nan=False),
    )
    @settings(max_examples=500)
    def test_idempotent(self, x, L):
        r = reduce(x, L)
        assert 0 <= r.representative < L
        assert reduce(r.representative, L).representative == r.representative

    def test_idempotent_bulk(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            x = rng.uniform(-100, 100)
            L = rng.uniform(1e-2, 10)
            r = reduce(x, L)
            assert reduce(r.representative, L).representative == r.representative


class TestCircleIntervalSet:
    def test_complement_of_near_full(self):
        s = CircleIntervalSet.from_arcs([(0.3, 1.0)], 1.0)
        assert complement(s).arcs == ()

    def test_complement_of_single_arc(self):
        s = CircleIntervalSet.from_arcs([(0.0, 0.25)], 1.0)
        assert complement(s).arcs == ((0.25, 0.75),)

    def test_complement_of_wrapped_pair(self):
        s = CircleIntervalSet.from_arcs([(0.0, 0.25), (0.75, 0.25)], 1.0)
        assert complement(s).arcs == ((0.25, 0.5),)

    def test_merge_adjacent(self):
        s = CircleIntervalSet.from_arcs([(0.0, 0.25), (0.25, 0.25)], 1.0)
        assert s.arcs == ((0.0, 0.5),)

    def test_complement_involution(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            k = rng.integers(1, 4)
            starts = np.sort(rng.uniform(0, 1, 2 * k))
            arcs = [(starts[2 * i], starts[2 * i + 1] - starts[2 * i]) for i in range(k)]
            arcs = [(s, l) for s, l in arcs if l > 1e-6]
            if not arcs:
                continue
            s = CircleIntervalSet.from_arcs(arcs, 1.0)
            cc = complement(complement(s))
            assert len(cc.arcs) == len(s.arcs)
            assert cc.total_length == pytest.approx(s.total_length, abs=1e-12)

    def test_open_membership(self):
        s = CircleIntervalSet.from_arcs([(0.2, 0.3)], 1.0)
        assert not s.contains(0.2)
        assert not s.contains(0.5)
        assert s.contains(0.35)
        assert s.contains_many([0.2, 0.35, 0.5]).tolist() == [False, True, False]

    def test_length_complement_additivity(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            L = rng.uniform(0.5, 5)
            a, b = np.sort(rng.uniform(0, L, 2))
            if b - a < 1e-9:
                continue
            s = CircleIntervalSet.from_arcs([(a, b - a)], L)
            assert s.total_length + complement(s).total_length == pytest.approx(L, rel=1e-12)


class TestLineIntervalSet:
    def test_touching_intervals_stay_split(self):
        s = LineIntervalSet.from_intervals([(0.0, 0.5), (0.5, 1.0)])
        assert s.intervals == ((0.0, 0.5), (0.5, 1.0))
        assert not s.contains(0.5)

    def test_overlapping_merge(self):
        s = LineIntervalSet.from_intervals([(0.0, 0.6), (0.5, 1.0)])
        assert s.intervals == ((0.0, 1.0),)

    def test_total_length(self):
        s = LineIntervalSet.from_intervals([(0.0, 0.25), (0.75, 1.0)])
        assert s.total_length == 0.5


class TestPreimageAffineMod:
    def test_two_interval_case(self):
        w = preimage_affine_mod(reduce(0.5, 2.0), 2.0)
        assert w.intervals == ((0.0, 0.25), (0.75, 1.0))
        assert w.total_length == pytest.approx(0.5, abs=1e-15)

    def test_one_interval_case(self):
        w = preimage_affine_mod(reduce(1.5, 2.0), 2.0)
        assert w.intervals == ((0.25, 0.75),)
        assert w.total_length == pytest.approx(0.5, abs=1e-15)

    def test_c_equals_one(self):
        w = preimage_affine_mod(reduce(0.5, 1.0), 1.0)
        assert w.intervals == ((0.0, 0.5), (0.5, 1.0))
        assert w.total_length == pytest.approx(1.0, abs=1e-15)

    def test_wrap_point_at_boundary_single_interval(self):
        # Target at 0: the arc boundary coincides with the clip edge and
        # a single interval comes out, no zero-length fragment.
        w = preimage_affine_mod(reduce(0.0, 2.0), 2.0)
        assert len(w.intervals) == 1
        assert w.total_length == pytest.approx(0.5, abs=1e-12)

    def test_full_circle_preimage_keeps_excluded_point(self):
        # scale 1: the preimage is the full interval minus one point, and
        # the split must survive the wrap arithmetic (start + 1 - 1 can
        # round one ulp past the start and silently merge the pieces)
        for t in (0.4632352941176471, 0.5, 0.46710526315789474):
            w = preimage_affine_mod(reduce(t, 1.0), 1.0)
            assert len(w.intervals) == 2
            assert w.intervals[0][1] == w.intervals[1][0]
            assert not w.contains(w.intervals[0][1])

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            preimage_affine_mod(reduce(0.5, 0.5), 0.5)

    def test_period_mismatch(self):
        with pytest.raises(ValueError):
            preimage_affine_mod(reduce(0.5, 1.0), 2.0)

    def test_total_length_random(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            c = rng.uniform(1, 10)
            t = rng.uniform(0, c)
            w = preimage_affine_mod(reduce(t, c), c)
            assert abs(w.total_length - 1 / c) < 1e-12
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
            interior = w.contains_many(P1, edge_tol=step)
            assert not np.any(interior & ~oracle)
            # oracle acceptances lie within one grid step of the set
            near = w.contains_many(P1) | w.contains_many(P1 - step) | w.contains_many(P1 + step)
            assert not np.any(oracle & ~near)
