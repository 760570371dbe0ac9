"""Unit helpers: time, data sizes, and data rates.

Simulation time is always a ``float`` number of seconds.  Data sizes are
integers in bytes; data rates are floats in bits per second.  These
helpers keep magic numbers out of the rest of the code and render
times and sizes for logs and tables.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

# -- time ------------------------------------------------------------------

MICROSECOND = 1e-6
MILLISECOND = 1e-3
SECOND = 1.0
MINUTE = 60.0

# -- sizes (bytes) ---------------------------------------------------------

KB = 1_000
MB = 1_000_000
GB = 1_000_000_000


def transmission_delay(size_bytes: int, rate_bps: float) -> float:
    """Seconds to serialise ``size_bytes`` onto a link of ``rate_bps``."""
    if rate_bps <= 0:
        raise ConfigurationError(f"rate must be positive, got {rate_bps}")
    return (size_bytes * 8.0) / rate_bps


def format_time(seconds: float) -> str:
    """Render seconds with a sensible unit for logs and tables."""
    if seconds == 0:
        return "0s"
    magnitude = abs(seconds)
    if magnitude < MILLISECOND:
        return f"{seconds / MICROSECOND:.1f}us"
    if magnitude < SECOND:
        return f"{seconds / MILLISECOND:.1f}ms"
    if magnitude < MINUTE:
        return f"{seconds:.2f}s"
    return f"{seconds / MINUTE:.1f}min"


def format_size(size_bytes: float) -> str:
    """Render a byte count with a sensible decimal unit."""
    magnitude = abs(size_bytes)
    if magnitude >= GB:
        return f"{size_bytes / GB:.2f}GB"
    if magnitude >= MB:
        return f"{size_bytes / MB:.2f}MB"
    if magnitude >= KB:
        return f"{size_bytes / KB:.1f}KB"
    return f"{int(size_bytes)}B"
