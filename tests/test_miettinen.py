import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import noise_snippet, series_of, two_group_truth
from reference import iter_fingerprints_per_offset, uniform_surprisal_model
from ziskit import pipeline
from ziskit.core.types import AudioSnippet, Fingerprint, SensorKind, SensorSeries
from ziskit.errors import InsufficientSamples, ModelGap
from ziskit.schemes import miettinen

HOUR_MS = 3_600_000


def snapshot_series(averages, period_s=10, readings_per_snapshot=5, start=0):
    """Series whose per-snapshot means equal `averages` exactly."""
    values, times = [], []
    step = period_s * 1000 // readings_per_snapshot
    for i, avg in enumerate(averages):
        for k in range(readings_per_snapshot):
            times.append(start + i * period_s * 1000 + k * step)
            values.append(avg)
    import numpy as np

    from ziskit.core.types import SensorSeries

    return SensorSeries(SensorKind.NOISE, np.array(times, dtype=np.int64),
                        np.array(values, dtype=np.float64), "dev")


def make_fp(bits, start=0):
    return Fingerprint(np.array(bits, dtype=np.uint8), "d", start)


def gated(surprisals, threshold):
    """Whether `pipeline.fingerprint_records` gates each surprisal at `threshold`.

    Fingerprint i of device a carries surprisals[i]; it pairs with a co-timed
    fingerprint of device b whose surprisal is infinite. The gate computes the
    surprisals in fingerprint order, so `miettinen.surprisal` is replaced by
    one that returns them in that order.
    """
    fps, values = [], []
    for i, s in enumerate(surprisals):
        fps += [Fingerprint(np.zeros(1, dtype=np.uint8), d, i * 1000) for d in "ab"]
        values += [s, math.inf]
    with mock.patch.object(miettinen, "surprisal", side_effect=values):
        records = pipeline.fingerprint_records(fps, [1] * len(fps), two_group_truth(),
                                               surprisal_threshold=threshold)
    assert len(records) == len(surprisals)
    return [r.gated for r in records]


class TestNoiseLevels:
    def test_square_wave_gives_constant_levels(self):
        samples = np.tile([300, -300], 16000).astype(np.int16)
        x = AudioSnippet(samples, 16000, 0, "d")
        levels = miettinen.noise_levels(x, m_w=1.0)
        assert len(levels) == 2
        np.testing.assert_allclose(levels.values, 300.0)

    def test_silence_gives_zero_levels(self):
        x = AudioSnippet(np.zeros(32000, dtype=np.int16), 16000, 0, "d")
        levels = miettinen.noise_levels(x, m_w=1.0)
        assert not np.any(levels.values)

    def test_matches_naive_loop_oracle(self, rng):
        x = noise_snippet(rng, seconds=3.0)
        levels = miettinen.noise_levels(x, m_w=0.5)
        win = 8000
        expected = [np.mean(np.abs(x.as_float()[i * win:(i + 1) * win]))
                    for i in range(6)]
        np.testing.assert_allclose(levels.values, expected)
        assert levels.timestamps_ms.tolist() == [0, 500, 1000, 1500, 2000, 2500]

    def test_too_short(self, rng):
        with pytest.raises(InsufficientSamples):
            miettinen.noise_levels(noise_snippet(rng, seconds=0.25), m_w=1.0)

    @settings(max_examples=80, deadline=None)
    @given(samples=st.lists(st.integers(-32768, 32767), min_size=1, max_size=400),
           rate=st.integers(1, 200), m_w=st.sampled_from([0.05, 0.1, 0.25, 0.5, 1.0]),
           block=st.integers(1, 120))
    def test_blocks_equal_one_whole_reduction(self, samples, rate, m_w, block):
        """Windows reduced a block at a time give the bits of one (n_win, win)
        float64 reduction over the whole recording, whatever the block size."""
        x = AudioSnippet(np.array(samples, dtype=np.int16), rate, 7, "d")
        win = int(round(m_w * rate))
        if win == 0 or x.samples.size < win:
            return
        n_win = x.samples.size // win
        whole = np.abs(x.samples[:n_win * win].reshape(n_win, win), dtype=np.float64).mean(axis=1)
        with mock.patch.object(miettinen, "_BLOCK_SAMPLES", block):
            levels = miettinen.noise_levels(x, m_w)
        assert levels.values.tobytes() == whole.tobytes()


class TestContextFingerprint:
    def test_hand_truth_table(self):
        cfg = miettinen.MiettinenConfig(snapshot_s=10, bits=3)
        series = snapshot_series([100.0, 120.0, 109.0 * 120 / 109, 109.0])
        # snapshots: 100 -> 120 (rel .2 > .1, abs 20 > 10) = 1
        series = snapshot_series([100.0, 120.0, 129.0, 140.0])
        fp = miettinen.iter_fingerprints(series, cfg)[0]
        # 100->120: rel .2, abs 20 -> 1 ; 120->129: rel .075 -> 0 ;
        # 129->140: rel .0853, abs 11 -> 0
        assert fp.bits.tolist() == [1, 0, 0]

    def test_rule_requires_both_thresholds(self):
        cfg = miettinen.MiettinenConfig(snapshot_s=10, bits=1)
        cases = [
            ([100.0, 120.0], 1),   # rel 0.2 > 0.1 and abs 20 > 10
            ([100.0, 109.0], 0),   # abs 9 <= 10
            ([100.0, 111.0], 1),   # rel 0.11 > 0.1 and abs 11 > 10
            ([200.0, 215.0], 0),   # abs 15 > 10 but rel 0.075 <= 0.1
        ]
        for averages, expected in cases:
            fp = miettinen.iter_fingerprints(snapshot_series(averages), cfg)[0]
            assert fp.bits.tolist() == [expected], averages

    def test_constant_series_all_zero(self):
        cfg = miettinen.MiettinenConfig(snapshot_s=10, bits=5)
        fp = miettinen.iter_fingerprints(snapshot_series([42.0] * 6), cfg)[0]
        assert not np.any(fp.bits)

    def test_zero_predecessor_uses_absolute_term(self):
        cfg = miettinen.MiettinenConfig(snapshot_s=10, bits=2)
        fp = miettinen.iter_fingerprints(snapshot_series([0.0, 11.0, 11.0]), cfg)[0]
        assert fp.bits.tolist() == [1, 0]
        fp2 = miettinen.iter_fingerprints(snapshot_series([0.0, 9.0, 9.0]), cfg)[0]
        assert fp2.bits.tolist() == [0, 0]

    def test_overflowing_change_sets_bit_without_warning(self):
        cfg = miettinen.MiettinenConfig(snapshot_s=10, bits=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # 1e300 / 1e-300 and 1e308 - -1e308 overflow to inf.
            bits = [miettinen.iter_fingerprints(
                snapshot_series(averages, readings_per_snapshot=1), cfg)[0].bits.tolist()
                for averages in ([1e-300, 1e300, 1e300], [-1e308, 1e308, 1e308])]
        assert bits == [[1, 0], [1, 0]]

    def test_overflowing_snapshot_sum_keeps_a_finite_mean(self):
        # Five readings of 1e308 sum past the float64 maximum; their mean does not.
        cfg = miettinen.MiettinenConfig(snapshot_s=5, bits=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fp = miettinen.iter_fingerprints(
                snapshot_series([-1e308, 1e308, 1e308], period_s=5), cfg)[0]
        assert fp.bits.tolist() == [1, 0]

    def test_snapshot_mean_at_the_float_maximum_stays_finite(self):
        # Three readings of the float64 maximum: each divided by 3 still sums
        # to inf, so the mean is taken relative to the largest reading.
        top = np.finfo(float).max
        cfg = miettinen.MiettinenConfig(snapshot_s=10, bits=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fp = miettinen.iter_fingerprints(snapshot_series(
                [top, 0.95 * top, 0.95 * top], readings_per_snapshot=3), cfg)[0]
        # A 5% change stays below delta_rel; an infinite first mean would set bit 0.
        assert fp.bits.tolist() == [0, 0]

    def test_insufficient_span(self):
        cfg = miettinen.MiettinenConfig(snapshot_s=10, bits=8)
        assert miettinen.iter_fingerprints(snapshot_series([1.0, 2.0, 3.0]), cfg) == []

    def test_iter_fingerprints_tiles_series(self):
        averages = [100.0] * 9
        cfg = miettinen.MiettinenConfig(snapshot_s=10, bits=2)
        fps = miettinen.iter_fingerprints(snapshot_series(averages), cfg)
        # 9 snapshots -> tiles at offsets 0, 2, 4, 6 (each needs 3 snapshots)
        assert len(fps) == 4
        starts = [fp.interval_start for fp in fps]
        assert starts == [10_000, 30_000, 50_000, 70_000]

    def test_luminosity_uses_raw_readings(self):
        series = series_of([100.0, 120.0, 135.0], kind=SensorKind.LUMINOSITY,
                           step_ms=10_000)
        cfg = miettinen.MiettinenConfig(snapshot_s=10, bits=2)
        fp = miettinen.iter_fingerprints(series, cfg)[0]
        assert fp.bits.tolist() == [1, 1]


CONFIGS = st.builds(miettinen.MiettinenConfig, snapshot_s=st.integers(1, 7),
                    bits=st.integers(1, 5), delta_rel=st.sampled_from([0.0, 0.1]),
                    delta_abs=st.sampled_from([0.0, 5.0, 10.0]))
# Runs of one level make whole snapshots of zeros, the predecessor that the
# relative threshold cannot judge.
RUNS = st.lists(st.tuples(st.sampled_from([0.0, 7.0, 100.0]) | st.floats(0.0, 1e4),
                          st.integers(1, 8)), min_size=1, max_size=10)


@st.composite
def luminosity_series(draw) -> SensorSeries:
    values = [level for level, n in draw(RUNS) for _ in range(n)]
    # Gaps up to several snapshots leave windows empty; a rare huge gap ends
    # the tiling far from the last reading.
    gaps = draw(st.lists(st.integers(1, 20_000) | st.just(10 ** 12),
                         min_size=len(values) - 1, max_size=len(values) - 1))
    times = draw(st.integers(-10 ** 12, 10 ** 12)) + np.cumsum([0, *gaps])
    return SensorSeries(SensorKind.LUMINOSITY, times, values, "lum")


@st.composite
def noise_series(draw) -> SensorSeries:
    # Measurement windows longer than a snapshot leave snapshots empty.
    rate = 40
    chunks = draw(st.lists(st.tuples(st.just(0) | st.integers(0, 3000), st.integers(1, 120)),
                           min_size=1, max_size=12))
    samples = np.concatenate([np.resize(np.arange(-amp, amp + 1), n) for amp, n in chunks])
    x = AudioSnippet(samples.astype(np.int16), rate, draw(st.integers(0, 10 ** 9)), "noise")
    m_w = draw(st.sampled_from([0.5, 1.0, 2.5]))
    return miettinen.noise_levels(x, m_w) if samples.size >= m_w * rate else series_of([])


@settings(max_examples=300, deadline=None)
@given(series=luminosity_series() | noise_series(), cfg=CONFIGS)
@example(series=series_of([0.0, 0.0, 11.0, 11.0, 0.0, 20.0], step_ms=1000),
         cfg=miettinen.MiettinenConfig(snapshot_s=1, bits=2, delta_abs=10.0))
@example(series=series_of([5.0, 6.0, 7.0, 8.0], step_ms=1500),
         cfg=miettinen.MiettinenConfig(snapshot_s=1, bits=1))
def test_iter_fingerprints_equals_per_offset_reference(series, cfg):
    got = miettinen.iter_fingerprints(series, cfg)
    want = iter_fingerprints_per_offset(series, cfg)
    assert [(fp.interval_start, fp.device_id, fp.bits.tolist()) for fp in got] == \
        [(fp.interval_start, fp.device_id, fp.bits.tolist()) for fp in want]


class TestSurprisal:
    def test_uniform_model_gives_length_bits(self):
        model = uniform_surprisal_model(16)
        fp = make_fp([0, 1] * 8)
        assert miettinen.surprisal(fp, model) == pytest.approx(16.0)

    def test_certain_match_gives_zero_bits(self):
        model = miettinen.SurprisalModel(
            n_bits=4, table={("weekday", 0): np.array([1.0, 1.0, 0.0, 0.0])})
        fp = make_fp([1, 1, 0, 0], start=0)  # epoch 0 is a weekday hour 0
        assert miettinen.surprisal(fp, model) == 0.0

    def test_mixed_model_hand_sum(self):
        length = 8
        p = np.full(length, 0.5)
        p[0] = 0.25
        model = miettinen.SurprisalModel(n_bits=length, table={("weekday", 0): p})
        fp = make_fp([1] + [0] * (length - 1))
        assert miettinen.surprisal(fp, model) == pytest.approx(2.0 + (length - 1) * 1.0)

    def test_additivity_over_concatenation(self):
        p1 = np.array([0.25, 0.5, 0.75])
        p2 = np.array([0.9, 0.1, 0.5])
        m1 = miettinen.SurprisalModel(3, {("weekday", 0): p1})
        m2 = miettinen.SurprisalModel(3, {("weekday", 0): p2})
        whole = miettinen.SurprisalModel(6, {("weekday", 0): np.concatenate([p1, p2])})
        bits1, bits2 = [1, 0, 1], [0, 0, 1]
        total = miettinen.surprisal(make_fp(bits1 + bits2), whole)
        parts = miettinen.surprisal(make_fp(bits1), m1) + \
            miettinen.surprisal(make_fp(bits2), m2)
        assert total == pytest.approx(parts)

    def test_model_gap(self):
        model = miettinen.SurprisalModel(4, {("weekday", 5): np.full(4, 0.5)})
        with pytest.raises(ModelGap):
            miettinen.surprisal(make_fp([1, 0, 1, 0], start=0), model)

    def test_gate_strictly_exceeds(self):
        # A pair is scored only when the surprisal strictly exceeds the
        # threshold t_err + margin.
        model = uniform_surprisal_model(8)
        s = miettinen.surprisal(make_fp([1] * 8), model)  # exactly 8 bits
        assert gated([s], 4 + 3.9) == [False]
        assert gated([s], 8 + 0.0) == [True]
        assert gated([s], 4 + 4.0) == [True]
        assert gated([np.nextafter(s, np.inf)], s) == [False]

    def test_gate_margin_monotone_exclusion(self, rng):
        # Sweep oracle: the gated fraction never decreases with the threshold.
        fps = [make_fp(rng.integers(0, 2, size=32)) for _ in range(200)]
        model = miettinen.SurprisalModel.fit(fps)  # surprisals spread around 32 bits
        surprisals = [miettinen.surprisal(fp, model) for fp in fps]
        fractions = [float(np.mean(gated(surprisals, float(threshold))))
                     for threshold in np.linspace(0, 40, 21)]
        assert fractions == sorted(fractions)
        assert fractions[0] == 0.0 and fractions[-1] == 1.0

    def test_fit_uses_add_one_smoothing(self):
        fps = [make_fp([1, 0], start=0), make_fp([1, 0], start=0)]
        model = miettinen.SurprisalModel.fit(fps)
        p = model.table[("weekday", 0)]
        np.testing.assert_allclose(p, [(2 + 1) / (2 + 2), (0 + 1) / (2 + 2)])

    def test_fit_partitions_weekday_weekend(self):
        # epoch day 0 = Thursday (weekday); day 2 = Saturday (weekend)
        saturday = 2 * 86_400_000
        fps = [make_fp([1, 1], start=0), make_fp([0, 0], start=saturday)]
        model = miettinen.SurprisalModel.fit(fps)
        assert ("weekday", 0) in model.table
        assert ("weekend", 0) in model.table
        np.testing.assert_allclose(model.table[("weekday", 0)], [2 / 3, 2 / 3])
        np.testing.assert_allclose(model.table[("weekend", 0)], [1 / 3, 1 / 3])

    def test_hour_and_partition_helpers(self):
        assert miettinen.hour_of_day(0) == 0
        assert miettinen.hour_of_day(5 * HOUR_MS + 100) == 5
        assert miettinen.day_partition(0) == "weekday"          # Thursday
        assert miettinen.day_partition(2 * 86_400_000) == "weekend"  # Saturday
        assert miettinen.day_partition(4 * 86_400_000) == "weekday"  # Monday


def test_fingerprint_from_audio_pipeline(rng):
    # noise pipeline reduces audio to 1 s noise levels first
    cfg = miettinen.MiettinenConfig(snapshot_s=2, bits=3, delta_rel=0.01,
                                    delta_abs=0.5)
    quiet = (rng.integers(-50, 51, size=16000 * 4)).astype(np.int16)
    loud = (rng.integers(-2000, 2001, size=16000 * 4)).astype(np.int16)
    samples = np.concatenate([quiet, loud])
    x = AudioSnippet(samples, 16000, 0, "d")
    fp = miettinen.iter_fingerprints(miettinen.noise_levels(x, cfg.measurement_window_s), cfg)[0]
    assert fp.bits.tolist() == [0, 1, 0]
