import numpy as np
import pytest

from conftest import noise_snippet, series_of
from ziskit.core.types import AudioSnippet, Fingerprint, SensorKind
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


class TestContextFingerprint:
    def test_hand_truth_table(self):
        cfg = miettinen.MiettinenConfig(snapshot_s=10, bits=3)
        series = snapshot_series([100.0, 120.0, 109.0 * 120 / 109, 109.0])
        # snapshots: 100 -> 120 (rel .2 > .1, abs 20 > 10) = 1
        series = snapshot_series([100.0, 120.0, 129.0, 140.0])
        fp = miettinen.context_fingerprint(series, cfg)
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
            fp = miettinen.context_fingerprint(snapshot_series(averages), cfg)
            assert fp.bits.tolist() == [expected], averages

    def test_constant_series_all_zero(self):
        cfg = miettinen.MiettinenConfig(snapshot_s=10, bits=5)
        fp = miettinen.context_fingerprint(snapshot_series([42.0] * 6), cfg)
        assert not np.any(fp.bits)

    def test_zero_predecessor_uses_absolute_term(self):
        cfg = miettinen.MiettinenConfig(snapshot_s=10, bits=2)
        fp = miettinen.context_fingerprint(snapshot_series([0.0, 11.0, 11.0]), cfg)
        assert fp.bits.tolist() == [1, 0]
        fp2 = miettinen.context_fingerprint(snapshot_series([0.0, 9.0, 9.0]), cfg)
        assert fp2.bits.tolist() == [0, 0]

    def test_insufficient_span(self):
        cfg = miettinen.MiettinenConfig(snapshot_s=10, bits=8)
        with pytest.raises(InsufficientSamples):
            miettinen.context_fingerprint(snapshot_series([1.0, 2.0, 3.0]), cfg)

    def test_offset_shifts_bits(self):
        averages = [100.0, 120.0, 100.0, 100.0, 120.0, 100.0]
        cfg = miettinen.MiettinenConfig(snapshot_s=10, bits=2)
        first = miettinen.context_fingerprint(snapshot_series(averages), cfg, offset=0)
        shifted = miettinen.context_fingerprint(snapshot_series(averages), cfg, offset=1)
        assert first.bits.tolist() == [1, 1]
        assert shifted.bits.tolist() == [1, 0]

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
        fp = miettinen.context_fingerprint(series, cfg)
        assert fp.bits.tolist() == [1, 1]


class TestSurprisal:
    def test_uniform_model_gives_length_bits(self):
        model = miettinen.SurprisalModel.uniform(16)
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
        model = miettinen.SurprisalModel.uniform(8)
        fp = make_fp([1] * 8)  # surprisal exactly 8 bits
        assert miettinen.surprisal_gate(fp, model, t_err=4, margin=3.9)
        assert not miettinen.surprisal_gate(fp, model, t_err=8, margin=0.0)
        assert not miettinen.surprisal_gate(fp, model, t_err=4, margin=4.0)

    def test_gate_margin_monotone_exclusion(self, rng):
        # Sweep oracle: the excluded fraction never decreases with margin.
        model = miettinen.SurprisalModel.uniform(32)
        fps = [make_fp(rng.integers(0, 2, size=32)) for _ in range(200)]
        fractions = []
        for margin in np.linspace(0, 40, 21):
            rejected = sum(
                not miettinen.surprisal_gate(fp, model, t_err=0, margin=float(margin))
                for fp in fps)
            fractions.append(rejected / len(fps))
        assert fractions == sorted(fractions)

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
    fp = miettinen.fingerprint_from_audio(x, cfg)
    assert fp.bits.tolist() == [0, 1, 0]
