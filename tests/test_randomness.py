from fractions import Fraction
from math import comb

import numpy as np
import pytest
from scipy.stats import binom

from ziskit.core.types import Fingerprint
from ziskit.errors import IncompatibleFingerprints, InvalidSplit
from ziskit.randomness import markov_stats, random_walk, split_subfingerprints


def fp(bits, device="d", start=0):
    return Fingerprint(np.asarray(bits, dtype=np.uint8), device, start)


def uniform_corpus(rng, n, length):
    return [fp(rng.integers(0, 2, size=length)) for _ in range(n)]


class TestRandomWalk:
    def test_all_ones_spike_at_plus_l(self):
        length = 32
        report = random_walk([fp([1] * length)] * 50)
        assert report.offsets[-1] == length
        assert report.counts[-1] == 50
        assert report.tv_distance == pytest.approx(
            1.0 - binom.pmf(length, length, 0.5), abs=1e-12)
        assert report.tv_distance > 0.9

    def test_alternating_bits_spike_at_zero(self):
        length = 40
        report = random_walk([fp([1, 0] * (length // 2))] * 10)
        mid = np.nonzero(report.offsets == 0)[0][0]
        assert report.counts[mid] == 10

    def test_uniform_corpus_small_tv(self, rng):
        report = random_walk(uniform_corpus(rng, 4000, 128))
        assert report.tv_distance < 0.1

    def test_endpoint_parity_and_sum_rule(self, rng):
        for bits in (rng.integers(0, 2, size=31), rng.integers(0, 2, size=32)):
            report = random_walk([fp(bits)])
            length = bits.size
            endpoint = 2 * int(bits.sum()) - length
            assert endpoint % 2 == length % 2
            observed = report.offsets[np.nonzero(report.counts)[0][0]]
            assert observed == endpoint == 2 * int(bits.sum()) - length

    def test_tv_zero_iff_identical(self):
        length = 8
        # corpus engineered to match Binomial(8, 0.5) exactly: impossible with
        # one fingerprint, so assert the bounds instead
        report = random_walk([fp([0, 1] * 4)])
        assert 0.0 <= report.tv_distance <= 1.0

    def test_mixed_lengths_rejected(self):
        with pytest.raises(IncompatibleFingerprints):
            random_walk([fp([1, 0]), fp([1, 0, 1])])

    def test_pmf_sums_to_one(self, rng):
        report = random_walk(uniform_corpus(rng, 10, 64))
        assert report.expected_pmf.sum() == pytest.approx(1.0, abs=1e-9)
        assert report.counts.sum() == 10

    @pytest.mark.parametrize("length", [1, 3, 31, 496])
    def test_pmf_is_the_rounded_exact_ratio(self, length):
        report = random_walk([fp([1] * length)])
        assert report.expected_pmf.tolist() == [
            float(Fraction(comb(length, k), 2 ** length)) for k in range(length + 1)]

    @pytest.mark.parametrize("length", [1, 31, 496, 1000])
    def test_pmf_within_1e_12_of_scipy(self, length):
        report = random_walk([fp([0] * length)])
        np.testing.assert_allclose(report.expected_pmf,
                                   binom.pmf(np.arange(length + 1), length, 0.5),
                                   rtol=1e-12, atol=0)


class TestSplit:
    def test_496_splits_into_16_chunks_of_31(self, rng):
        whole = fp(rng.integers(0, 2, size=496))
        chunks = split_subfingerprints(whole, 31)
        assert len(chunks) == 16
        assert all(len(c) == 31 for c in chunks)

    def test_concatenation_recovers_original(self, rng):
        whole = fp(rng.integers(0, 2, size=496))
        chunks = split_subfingerprints(whole, 31)
        np.testing.assert_array_equal(
            np.concatenate([c.bits for c in chunks]), whole.bits)

    def test_toy_four_bit_split(self):
        chunks = split_subfingerprints(fp([1, 0, 1, 1]), 2)
        assert chunks[0].bits.tolist() == [1, 0]
        assert chunks[1].bits.tolist() == [1, 1]

    def test_indivisible_length_rejected(self):
        with pytest.raises(InvalidSplit):
            split_subfingerprints(fp([1, 0, 1]), 2)


class TestMarkovStats:
    def test_all_zero_corpus(self):
        report = markov_stats([fp([0] * 16)] * 5)
        assert not np.any(report.p_one)
        assert report.transitions[0] == 0.0
        assert np.isnan(report.transitions[1])

    def test_uniform_corpus_within_3_sigma(self, rng):
        n, length = 3000, 64
        report = markov_stats(uniform_corpus(rng, n, length))
        sigma = 0.5 / np.sqrt(n)
        assert np.all(np.abs(report.p_one - 0.5) < 3.5 * sigma + 1e-12) or \
            np.mean(np.abs(report.p_one - 0.5) < 3 * sigma) > 0.95

    def test_deterministic_1100_pattern(self):
        # per fingerprint 1100 1100: transitions 1->1, 1->0, 0->0, 0->1, ...
        report = markov_stats([fp([1, 1, 0, 0] * 2)] * 3)
        np.testing.assert_allclose(report.p_one, [1, 1, 0, 0, 1, 1, 0, 0])
        # current 1 (positions 0,1,4,5 minus last) -> next bits 1,0,1,0
        assert report.transitions[1] == pytest.approx(0.5)
        # current 0 (positions 2,3,6) -> next bits 0,1 and 0,1,(end) -> 1/3
        assert report.transitions[0] == pytest.approx(1 / 3)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            markov_stats([])
