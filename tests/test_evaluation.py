import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ziskit import evaluation as ev
from ziskit.core.types import EvaluationRecord, Group, GroundTruth, Label, Subscenario
from ziskit.core.windowing import filter_subscenario
from ziskit.errors import DegenerateLabels


def sweep_oracle(scores, labels):
    """Exhaustive enumeration over a fine threshold set, same tie rule."""
    scores = np.asarray(scores, dtype=float)
    uniq = np.unique(scores)
    candidates = [-np.inf, np.inf]
    candidates += list(uniq)
    candidates += list((uniq[:-1] + uniq[1:]) / 2)
    candidates += list(uniq - 1e-9) + list(uniq + 1e-9)
    best = None
    for thr in candidates:
        far, frr = ev.far_frr(scores, labels, thr)
        key = (abs(far - frr), far, frr)
        if best is None or key < best[0]:
            best = (key, far, frr)
    _, far, frr = best
    return far, frr, abs(far - frr) > ev.STARRED_TOLERANCE


def reference_sweep(scores, labels, far_targets=(0.001, 0.005, 0.01, 0.05)):
    """The per-threshold loop: one far_frr per candidate, strict-< first wins.

    Returns the EER point as (threshold, far, frr, eer, starred) and the
    FRR-at-FAR curve, for comparison with `==`.
    """
    scores = np.asarray(scores, dtype=float)
    uniq = np.unique(scores)
    candidates = np.concatenate(([-np.inf], (uniq[:-1] + uniq[1:]) / 2.0, [np.inf]))
    points = [(thr, *ev.far_frr(scores, labels, thr)) for thr in candidates]
    best = None
    for thr, far, frr in points:
        key = (abs(far - frr), far, frr)
        if best is None or key < best[0]:
            best = (key, thr, far, frr)
    _, thr, far, frr = best
    rates = (float(thr), far, frr, (far + frr) / 2.0, abs(far - frr) > ev.STARRED_TOLERANCE)
    curve = [(float(target), float(min(fr for _, fa, fr in points if fa <= target)))
             for target in far_targets]
    return rates, curve


def assert_matches_reference(scores, labels):
    targets = (0.001, 0.01, 0.05, 0.2, 0.5, 0.9)
    rates, curve = reference_sweep(scores, labels, targets)
    got = ev.equal_error_rate(scores, labels)
    assert (got.threshold, got.far, got.frr, got.eer, got.starred) == rates
    # Signed zeros compare equal; the threshold's sign must match as well.
    assert np.signbit(got.threshold) == np.signbit(rates[0])
    assert ev.frr_at_far(scores, labels, far_targets=targets) == curve


class TestSweepMatchesReference:
    @pytest.mark.parametrize("decimals", [1, 2])
    def test_tie_heavy_corpora(self, rng, decimals):
        for _ in range(30):
            n = int(rng.integers(2, 200))
            scores = np.round(rng.normal(size=n), decimals)
            labels = rng.integers(0, 2, size=n)
            labels[:2] = [0, 1]
            assert_matches_reference(scores, labels)

    def test_signed_zeros(self, rng):
        for _ in range(30):
            scores = rng.choice([-0.0, 0.0, 0.5, -0.5], size=12)
            labels = rng.integers(0, 2, size=12)
            labels[:2] = [0, 1]
            assert_matches_reference(scores, labels)

    def test_single_score_classes(self):
        for scores, labels in [([0.3, 0.7], [0, 1]), ([0.7, 0.3], [0, 1]),
                               ([0.5, 0.5], [1, 0]), ([0.1, 0.4, 0.9, 0.4], [1, 0, 0, 0]),
                               ([0.1, 0.4, 0.9, 0.4], [0, 1, 1, 1])]:
            assert_matches_reference(scores, labels)

    def test_midpoint_rounding_onto_a_score(self):
        # (1 + nextafter(1)) / 2 rounds to 1.0, so that candidate accepts 1.0.
        one, up = 1.0, float(np.nextafter(1.0, 2.0))
        assert (one + up) / 2.0 == one
        assert_matches_reference([one, up, 0.5, up], [0, 1, 1, 0])
        assert_matches_reference([one, up, 0.5, one], [1, 0, 0, 1])

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_midpoints_overflowing_to_infinity(self):
        big = np.finfo(float).max
        assert_matches_reference([big, big / 2, -big, -big / 2], [1, 0, 1, 0])

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @settings(max_examples=200, deadline=None)
    @given(data=st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                                   st.integers(0, 1)), min_size=2, max_size=40))
    def test_hypothesis_inputs(self, data):
        scores = [s for s, _ in data]
        labels = [1, 0] + [label for _, label in data[2:]]
        assert_matches_reference(scores, labels)

    def test_sweeps_never_call_far_frr(self, rng, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("far_frr called")

        monkeypatch.setattr(ev, "far_frr", forbidden)
        scores, labels = rng.random(50), np.array([0, 1] * 25)
        ev.equal_error_rate(scores, labels)
        ev.frr_at_far(scores, labels)


class TestNonFiniteScores:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected(self, bad):
        scores, labels = [0.1, bad, 0.9, 0.2], [0, 1, 1, 0]
        for call in (lambda: ev.equal_error_rate(scores, labels),
                     lambda: ev.frr_at_far(scores, labels),
                     lambda: ev.far_frr(scores, labels, 0.5)):
            with pytest.raises(ValueError, match="finite"):
                call()


class TestFarFrr:
    def test_threshold_below_all_accepts_everything(self):
        far, frr = ev.far_frr([0.2, 0.8], [0, 1], -1.0)
        assert (far, frr) == (1.0, 0.0)

    def test_threshold_above_all_rejects_everything(self):
        far, frr = ev.far_frr([0.2, 0.8], [0, 1], 2.0)
        assert (far, frr) == (0.0, 1.0)

    def test_separable_at_mid_threshold(self):
        far, frr = ev.far_frr([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0], 0.5)
        assert (far, frr) == (0.0, 0.0)

    def test_single_class_raises(self):
        with pytest.raises(DegenerateLabels):
            ev.far_frr([0.1, 0.2], [1, 1], 0.5)


class TestEqualErrorRate:
    def test_separable_is_zero(self):
        rates = ev.equal_error_rate([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])
        assert rates.eer == 0.0 and not rates.starred

    def test_worked_example_half(self):
        rates = ev.equal_error_rate([0.3, 0.7, 0.4, 0.6], [1, 1, 0, 0])
        assert rates.eer == 0.5
        assert rates.far == rates.frr == 0.5
        assert not rates.starred

    def test_matches_exhaustive_oracle(self, rng):
        for _ in range(50):
            n = 60
            scores = np.round(rng.normal(size=n), 2)
            labels = rng.integers(0, 2, size=n)
            labels[:2] = [0, 1]
            rates = ev.equal_error_rate(scores, labels)
            far, frr, starred = sweep_oracle(scores, labels)
            assert (rates.far, rates.frr, rates.starred) == (far, frr, starred)

    def test_random_interleaved_near_half(self, rng):
        scores = rng.random(1000)
        labels = np.array([0, 1] * 500)
        rates = ev.equal_error_rate(scores, labels)
        assert 0.45 <= rates.eer <= 0.55

    def test_starred_when_rates_differ(self):
        # best threshold 0.525: FAR 1/3 vs FRR 1/2, quantization forbids equality
        rates = ev.equal_error_rate([0.5, 0.55, 0.6, 0.1, 0.2], [1, 1, 0, 0, 0])
        assert rates.far == pytest.approx(1 / 3)
        assert rates.frr == pytest.approx(1 / 2)
        assert rates.starred
        assert rates.eer == pytest.approx((rates.far + rates.frr) / 2)

    def test_min_max_bracket(self, rng):
        scores = rng.random(101)
        labels = rng.integers(0, 2, size=101)
        labels[:2] = [0, 1]
        rates = ev.equal_error_rate(scores, labels)
        assert min(rates.far, rates.frr) <= rates.eer <= max(rates.far, rates.frr)


class TestFrrAtFar:
    def test_separable_all_zero(self):
        out = ev.frr_at_far([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0],
                            far_targets=[0.001, 0.01, 0.05])
        assert [frr for _, frr in out] == [0.0, 0.0, 0.0]

    def test_quantization_floor(self):
        # 2 non-colocated scores: any FAR target below 1/2 forces FAR = 0,
        # i.e. the strictest threshold; overlapping classes then pay in FRR.
        scores = [0.6, 0.4, 0.5, 0.3]
        labels = [1, 1, 0, 0]
        out = ev.frr_at_far(scores, labels, far_targets=[0.4])
        assert out[0][1] == 0.5  # only the 0.6-coloc clears the 0.5 non-coloc

    def test_matches_brute_force_on_hand_corpus(self, rng):
        scores = [0.1, 0.2, 0.3, 0.4, 0.5, 0.55, 0.6, 0.7, 0.8, 0.9]
        labels = [0, 0, 1, 0, 1, 0, 1, 1, 0, 1]
        for target in (0.05, 0.2, 0.4, 0.8):
            (_, frr), = ev.frr_at_far(scores, labels, far_targets=[target])
            feasible = []
            for thr in np.linspace(-1, 2, 3001):
                far, fr = ev.far_frr(scores, labels, thr)
                if far <= target:
                    feasible.append(fr)
            assert frr == min(feasible)

    def test_monotone_in_target(self, rng):
        scores = rng.random(200)
        labels = rng.integers(0, 2, size=200)
        labels[:2] = [0, 1]
        targets = [0.001, 0.01, 0.05, 0.1, 0.3]
        out = ev.frr_at_far(scores, labels, far_targets=targets)
        frrs = [frr for _, frr in out]
        assert frrs == sorted(frrs, reverse=True)

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            ev.frr_at_far([0.1, 0.9], [0, 1], far_targets=[0.0])


class TestCrossApply:
    def test_self_application_recovers_eer_point(self, rng):
        scores = rng.random(300)
        labels = rng.integers(0, 2, size=300)
        labels[:2] = [0, 1]
        rates = ev.equal_error_rate(scores, labels)
        result = ev.cross_apply(rates.threshold, scores, labels)
        assert (result.far, result.frr) == (rates.far, rates.frr)
        assert result.delta_far == 0.0 and result.delta_frr == 0.0

    def test_shifted_scores_oracle(self, rng):
        scores = rng.random(200)
        labels = rng.integers(0, 2, size=200)
        labels[:2] = [0, 1]
        rates = ev.equal_error_rate(scores, labels)
        shifted = scores + 0.2
        result = ev.cross_apply(rates.threshold, shifted, labels)
        far, frr = ev.far_frr(shifted, labels, rates.threshold)
        assert (result.far, result.frr) == (far, frr)
        assert far >= rates.far  # accepting more after the shift

    def test_far_frr_monotone_in_threshold(self, rng):
        scores = rng.random(150)
        labels = rng.integers(0, 2, size=150)
        labels[:2] = [0, 1]
        thresholds = np.linspace(-0.1, 1.1, 40)
        fars, frrs = zip(*(ev.far_frr(scores, labels, t) for t in thresholds))
        assert list(fars) == sorted(fars, reverse=True)
        assert list(frrs) == sorted(frrs)


class TestRecords:
    def _records(self):
        return [
            EvaluationRecord("a", "b", 0, 10, Label.COLOCATED, 0.9),
            EvaluationRecord("a", "c", 0, 10, Label.NON_COLOCATED, 0.2),
            EvaluationRecord("b", "c", 0, 10, Label.NON_COLOCATED, None),
        ]

    def test_availability_excludes_gated(self):
        assert ev.availability(self._records()) == pytest.approx(2 / 3)
        assert ev.availability([]) == 0.0

    def test_usable_scores_drop_gated(self):
        scores, labels = ev.usable_scores(self._records())
        assert scores.tolist() == [0.9, 0.2]
        assert labels.tolist() == [1, 0]

    def test_cells_in_results_row_order(self):
        # t ascending; per t "full" (every record of that t), then each
        # subscenario in the ground truth's order, through filter_subscenario.
        truth = GroundTruth(groups=(Group("g", ("a", "b"), ((0, 40_000),)),),
                            subscenarios=(Subscenario("late", ((20_000, 40_000),)),
                                          Subscenario("early", ((0, 20_000),))))
        records = [EvaluationRecord("a", "b", start, t, Label.COLOCATED, 0.5)
                   for t in (20, 5, 10) for start in range(0, 40_000 - t * 1000 + 1, t * 1000)]
        cells = ev.cells(records, truth)
        assert list(cells) == [(t, sub) for t in (5, 10, 20)
                               for sub in ("full", "late", "early")]
        for (t, sub), cell in cells.items():
            at_t = [r for r in records if r.interval_len_s == t]
            assert cell == (at_t if sub == "full" else filter_subscenario(at_t, truth, sub))
        assert [len(cell) for cell in cells.values()] == [8, 4, 4, 4, 2, 2, 2, 1, 1]
        assert ev.cells(records, None) == {(t, "full"): [r for r in records
                                                          if r.interval_len_s == t]
                                           for t in (5, 10, 20)}
