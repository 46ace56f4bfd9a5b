"""Binary IQ interchange files: 32-byte header plus interleaved float32 pairs."""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .waveform import AnalogSignal

__all__ = ["IqFormatError", "IqHeader", "read_iq", "read_iq_header", "write_iq"]

MAGIC = b"ZOIQ"
VERSION = 1
# magic, version, sample rate (Hz), sample count, reserved
_HEADER = struct.Struct("<4sHdQ10s")
assert _HEADER.size == 32


class IqFormatError(ValueError):
    """The file does not parse as a well-formed IQ capture."""


@dataclass(frozen=True)
class IqHeader:
    version: int
    rate: float
    count: int


def write_iq(path: str, signal: AnalogSignal) -> None:
    """Store a complex signal as little-endian float32 I,Q pairs.

    Only the sample rate survives in the header; the time origin does
    not, so a read-back signal starts at grid index 0, t = 0.
    """
    samples = np.asarray(signal.samples, dtype=np.complex64)
    header = _HEADER.pack(MAGIC, VERSION, float(signal.rate),
                          samples.size, b"\x00" * 10)
    inter = np.empty(2 * samples.size, dtype="<f4")
    inter[0::2] = samples.real
    inter[1::2] = samples.imag
    with open(path, "wb") as f:
        f.write(header)
        f.write(inter.tobytes())


def read_iq_header(path: str) -> IqHeader:
    """Parse and validate the 32-byte header; the body must hold its count."""
    with open(path, "rb") as f:
        head = f.read(_HEADER.size)
        body = f.seek(0, os.SEEK_END) - _HEADER.size
    if len(head) < _HEADER.size:
        raise IqFormatError(
            f"{path}: header needs {_HEADER.size} bytes, file has {len(head)}"
        )
    magic, version, rate, count, _ = _HEADER.unpack(head)
    if magic != MAGIC:
        raise IqFormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise IqFormatError(f"{path}: unsupported version {version}")
    if not rate > 0:
        raise IqFormatError(f"{path}: nonpositive sample rate {rate}")
    if body != 8 * count:
        raise IqFormatError(
            f"{path}: header promises {count} samples, "
            f"body holds {body // 8} ({body} bytes)"
        )
    return IqHeader(version=version, rate=rate, count=count)


def read_iq(path: str) -> AnalogSignal:
    """Load an IQ capture; header and body sizes must agree exactly."""
    header = read_iq_header(path)
    with open(path, "rb") as f:
        f.seek(_HEADER.size)
        body = f.read()
    inter = np.frombuffer(body, dtype="<f4")
    samples = inter[0::2].astype(np.float64) + 1j * inter[1::2].astype(np.float64)
    return AnalogSignal.adopt(samples, rate=header.rate, start=0)
