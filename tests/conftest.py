import struct

import numpy as np
import pytest

from ziskit.core.types import AudioSnippet, GroundTruth, Group, SensorKind, SensorSeries


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def noise_snippet(rng, seconds=1.0, rate=16000, amplitude=3000, device="dev",
                  start=0) -> AudioSnippet:
    samples = rng.integers(-amplitude, amplitude + 1, size=int(seconds * rate),
                           dtype=np.int64).astype(np.int16)
    return AudioSnippet(samples, rate, start, device)


def series_of(values, kind=SensorKind.NOISE, step_ms=1000, device="dev",
              start=0) -> SensorSeries:
    values = np.asarray(values, dtype=np.float64)
    times = start + np.arange(values.size, dtype=np.int64) * step_ms
    return SensorSeries(kind, times, values, device)


def two_group_truth(until_ms=1_000_000) -> GroundTruth:
    return GroundTruth(groups=(
        Group("g0", ("a", "b"), ((0, until_ms),)),
        Group("g1", ("c", "d"), ((0, until_ms),)),
    ))


# KSDATAFORMAT_SUBTYPE_PCM, the sub-format GUID of integer PCM in WAVE_FORMAT_EXTENSIBLE.
PCM_SUBFORMAT = bytes.fromhex("0100000000001000800000aa00389b71")


def wav_bytes(data: bytes, *, tag: int = 1, channels: int = 1, bits: int = 16,
              rate: int = 16000) -> bytes:
    """A RIFF/WAVE file of one 'fmt ' chunk and one 'data' chunk holding `data`.

    Tag 1 is integer PCM, 3 IEEE float, 0xFFFE WAVE_FORMAT_EXTENSIBLE (here
    with the PCM sub-format).
    """
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", tag, channels, rate, rate * block, block, bits)
    if tag == 0xFFFE:
        fmt += struct.pack("<HHI", 22, bits, 4) + PCM_SUBFORMAT
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(data)) + data)
    return b"RIFF" + struct.pack("<I", len(body)) + body
