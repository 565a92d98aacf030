"""Reference implementations that only tests use: each is the oracle that a
test compares the production path against, and no command runs it."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ziskit import dsp
from ziskit.core.types import AudioSnippet
from ziskit.schemes.miettinen import SurprisalModel
from ziskit.schemes.shrestha import ShresthaFeatureVector


def apply_alignment(x: AudioSnippet, y: AudioSnippet,
                    result: dsp.AlignmentResult) -> tuple[AudioSnippet, AudioSnippet]:
    """Shift-and-trim both snippets to the aligned common length."""
    x2, y2 = dsp._coarse_align(x, y)
    lag, n = result.lag_samples, result.trimmed_len
    xs, ys = x2.samples, y2.samples
    if lag >= 0:
        xa, ya = xs[:n], ys[lag:lag + n]
        y_start = y2.start_time + int(round(lag * 1000 / y2.rate_hz))
        return (
            AudioSnippet(xa, x2.rate_hz, x2.start_time, x2.device_id),
            AudioSnippet(ya, y2.rate_hz, y_start, y2.device_id),
        )
    xa, ya = xs[-lag:-lag + n], ys[:n]
    x_start = x2.start_time + int(round(-lag * 1000 / x2.rate_hz))
    return (
        AudioSnippet(xa, x2.rate_hz, x_start, x2.device_id),
        AudioSnippet(ya, y2.rate_hz, y2.start_time, y2.device_id),
    )


def expand_instances(rows: list[ShresthaFeatureVector]) -> list[ShresthaFeatureVector]:
    """Inverse of compression: repeat each row `weight` times with weight 1."""
    out = []
    for row in rows:
        out.extend([replace(row, weight=1)] * row.weight)
    return out


def uniform_surprisal_model(n_bits: int) -> SurprisalModel:
    """P = 0.5 everywhere; covers every hour and partition."""
    table = {(part, hour): np.full(n_bits, 0.5)
             for part in ("weekday", "weekend") for hour in range(24)}
    return SurprisalModel(n_bits=n_bits, table=table)
