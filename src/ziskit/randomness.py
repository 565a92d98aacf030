"""Fingerprint randomness diagnostics.

Fingerprints are read as random walks (1-bits step up, 0-bits step down);
uniformly random bits give binomially distributed endpoints. Per-position
one-frequencies and adjacent-bit transition estimates expose positional bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ziskit.core.types import Fingerprint, common_length
from ziskit.errors import InvalidSplit


@dataclass(frozen=True)
class RandomWalkReport:
    offsets: np.ndarray        # possible endpoints -L, -L+2, ..., L
    counts: np.ndarray         # observed endpoint histogram
    expected_pmf: np.ndarray   # Binomial(L, 0.5) mapped onto offsets
    tv_distance: float
    n_fingerprints: int
    n_bits: int


@dataclass(frozen=True)
class MarkovReport:
    p_one: np.ndarray          # P(bit = 1) per position
    # transitions[v] = P(next bit = 1 | current bit = v)
    transitions: np.ndarray
    n_fingerprints: int


def _bit_matrix(fingerprints: list[Fingerprint]) -> np.ndarray:
    if not fingerprints:
        raise ValueError("need at least one fingerprint")
    common_length(fingerprints)
    return np.stack([fp.bits for fp in fingerprints]).astype(np.int64)


def random_walk(fingerprints: list[Fingerprint]) -> RandomWalkReport:
    """Endpoint histogram vs the binomial expectation, with their TV distance.

    Each Binomial(L, 1/2) probability is the exact ratio comb(L, k) / 2**L, rounded once."""
    bits = _bit_matrix(fingerprints)
    n, length = bits.shape
    ones = bits.sum(axis=1)
    counts = np.bincount(ones, minlength=length + 1)
    offsets = 2 * np.arange(length + 1) - length
    pmf = np.array([math.comb(length, k) / 2 ** length for k in range(length + 1)])
    empirical = counts / n
    tv = 0.5 * float(np.abs(empirical - pmf).sum())
    return RandomWalkReport(offsets=offsets, counts=counts, expected_pmf=pmf,
                            tv_distance=tv, n_fingerprints=n, n_bits=length)


def split_subfingerprints(fingerprint: Fingerprint, sub_len: int = 31) -> list[Fingerprint]:
    """Contiguous sub-fingerprints of sub_len bits, in order."""
    length = len(fingerprint)
    if sub_len <= 0 or length % sub_len:
        raise InvalidSplit(f"{length} bits not divisible into {sub_len}-bit chunks")
    return [Fingerprint(fingerprint.bits[i:i + sub_len], fingerprint.device_id,
                        fingerprint.interval_start) for i in range(0, length, sub_len)]


def markov_stats(fingerprints: list[Fingerprint]) -> MarkovReport:
    """Per-position one-frequencies and adjacent-bit transition frequencies."""
    bits = _bit_matrix(fingerprints)
    p_one = bits.mean(axis=0)
    cur = bits[:, :-1].reshape(-1)
    nxt = bits[:, 1:].reshape(-1)
    transitions = np.zeros(2)
    for v in (0, 1):
        mask = cur == v
        transitions[v] = float(nxt[mask].mean()) if np.any(mask) else np.nan
    return MarkovReport(p_one=p_one, transitions=transitions,
                        n_fingerprints=bits.shape[0])
