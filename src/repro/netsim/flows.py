"""Flow-level models: web page loads and adaptive video streaming.

These sit on top of the TCP rounds model and provide the two workload
shapes the paper's motivation keeps returning to: page loads (whose
latency the §3.2 tunneling argument is about) and adaptive-bitrate
video (whose shaping the §2.2 Binge On discussion is about).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ConfigurationError
from repro.netsim.tcp import (
    PathCharacteristics,
    TcpParams,
    simulate_transfer,
)


@dataclasses.dataclass(frozen=True)
class WebPage:
    """A web page as a set of objects fetched over ``connections``."""

    object_sizes: list[int]
    connections: int = 6

    @property
    def total_bytes(self) -> int:
        return sum(self.object_sizes)


def synth_page(rng: np.random.Generator) -> WebPage:
    """A synthetic page of 20 objects with log-normally distributed
    sizes (median 24 kB)."""
    sizes = rng.lognormal(mean=np.log(24_000), sigma=1.0, size=20)
    return WebPage(object_sizes=[max(400, int(s)) for s in sizes])


def page_load_time(
    page: WebPage,
    path: PathCharacteristics,
    rng: np.random.Generator,
    params: TcpParams | None = None,
    per_request_overhead: float = 0.0,
) -> float:
    """Approximate page-load time over parallel persistent connections.

    Objects are assigned round-robin to ``page.connections`` persistent
    connections; each connection fetches its objects sequentially (one
    handshake, then back-to-back transfers).  PLT is the max over
    connections — the standard waterfall approximation.
    """
    params = params or TcpParams()
    lanes = [0.0] * max(1, page.connections)
    for index, size in enumerate(page.object_sizes):
        lane = index % len(lanes)
        after_handshake = params if lanes[lane] == 0.0 else dataclasses.replace(
            params, handshake_rtts=0.0
        )
        result = simulate_transfer(size, path, after_handshake, rng)
        lanes[lane] += result.duration + per_request_overhead + path.rtt / 2
    return max(lanes)


# -- adaptive video -----------------------------------------------------------

#: A standard bitrate ladder (bps): 240p, 360p, 480p, 720p, 1080p.
DEFAULT_BITRATE_LADDER_BPS = (400_000.0, 750_000.0, 1_200_000.0,
                              2_500_000.0, 5_000_000.0)

#: Resolutions named for reporting; index-matched to the ladder.
LADDER_LABELS = ("240p", "360p", "480p", "720p", "1080p")

#: The first ladder index regarded as "HD" (720p).
HD_INDEX = 3


@dataclasses.dataclass
class VideoSessionResult:
    """Outcome of one adaptive-streaming session."""

    duration: float
    chosen_bitrate_bps: float
    chosen_label: str
    bytes_downloaded: int
    bytes_charged_to_quota: int
    rebuffer_events: int
    is_hd: bool


def stream_video(
    duration_seconds: float,
    available_bps: float,
    zero_rated: bool = False,
) -> VideoSessionResult:
    """Model an ABR player streaming for ``duration_seconds``.

    The player picks the highest rung of the default ladder at or below
    ``0.8 * available_bps`` — a simple but standard
    rate-based ABR.  If even the lowest rung exceeds the available
    bandwidth, the session rebuffers periodically (one event per 10 s of
    playback, a coarse but monotone model).

    ``zero_rated`` reflects the Binge On accounting: downloaded bytes do
    not count against the monthly quota.
    """
    if duration_seconds <= 0:
        raise ConfigurationError("duration must be positive")
    if available_bps <= 0:
        raise ConfigurationError("available bandwidth must be positive")

    ladder = DEFAULT_BITRATE_LADDER_BPS
    target = 0.8 * available_bps
    index = 0
    for rung, bitrate in enumerate(ladder):
        if bitrate <= target:
            index = rung
    if ladder[0] > target:
        index = 0
        rebuffers = int(duration_seconds // 10) + 1
    else:
        rebuffers = 0

    bitrate = ladder[index]
    nbytes = int(bitrate * duration_seconds / 8.0)
    return VideoSessionResult(
        duration=duration_seconds,
        chosen_bitrate_bps=bitrate,
        chosen_label=LADDER_LABELS[index],
        bytes_downloaded=nbytes,
        bytes_charged_to_quota=0 if zero_rated else nbytes,
        rebuffer_events=rebuffers,
        is_hd=index >= HD_INDEX,
    )
