"""E4 — §2.2 network management: Binge On vs per-flow user policy.

"T-Mobile's Binge On program ... zero-rates all participating video
provider's traffic, but also throttles it to 1.5 Mbps (often leading
to sub-HD quality) ... users cannot decide to stream at high
resolution (without zero rating) at the time the video is loaded;
rather, there is one policy that applies to all of their video
traffic."

Three schemes stream the same two videos (one the user wants in HD,
one they're happy to save quota on):

* **no policy** — everything full rate, everything billed;
* **Binge On** — everything shaped to 1.5 Mbps via a token bucket,
  everything zero-rated;
* **PVN per-flow** — the user's PVNC zero-rates+shapes the casual
  video but opts the important one out, exactly the choice the paper
  says blanket policies remove.
"""

from __future__ import annotations

from repro.experiments.harness import ExperimentResult, main
from repro.netsim.flows import stream_video
from repro.netsim.queueing import TokenBucket

BINGE_ON_BPS = 1_500_000.0


def _shaped_rate(link_bps: float, shape_bps: float) -> float:
    """Long-run rate through a 1.5 Mbps token bucket on ``link_bps``.

    Verifies the shaper actually enforces the cap rather than assuming
    it: send segments as fast as the bucket allows and measure.
    """
    duration = 30.0
    bucket = TokenBucket(rate_bps=shape_bps, burst_bytes=16_000)
    now, sent = 0.0, 0
    segment = 15_000
    while now < duration:
        wait = bucket.delay_for(segment, now)
        now += max(wait, segment * 8.0 / link_bps)
        sent += segment
    return min(link_bps, sent * 8.0 / now)


def run(seed: int = 0) -> ExperimentResult:
    session_seconds = 120.0
    link_bps = 20e6
    shaped = _shaped_rate(link_bps, BINGE_ON_BPS)

    schemes = {}
    # Scheme 1: no policy.
    important = stream_video(session_seconds, link_bps, zero_rated=False)
    casual = stream_video(session_seconds, link_bps, zero_rated=False)
    schemes["no policy"] = (important, casual)
    # Scheme 2: Binge On — one blanket shaped+zero-rated policy.
    important_b = stream_video(session_seconds, shaped, zero_rated=True)
    casual_b = stream_video(session_seconds, shaped, zero_rated=True)
    schemes["binge-on (blanket)"] = (important_b, casual_b)
    # Scheme 3: PVN per-flow policy — user opts the important flow out.
    important_p = stream_video(session_seconds, link_bps, zero_rated=False)
    casual_p = stream_video(session_seconds, shaped, zero_rated=True)
    schemes["pvn (per-flow)"] = (important_p, casual_p)

    rows = []
    metrics: dict[str, float] = {"shaped_rate_mbps": shaped / 1e6}
    for name, (flow_a, flow_b) in schemes.items():
        hd_count = int(flow_a.is_hd) + int(flow_b.is_hd)
        quota = flow_a.bytes_charged_to_quota + flow_b.bytes_charged_to_quota
        rows.append((
            name,
            flow_a.chosen_label, flow_b.chosen_label,
            hd_count,
            quota / 1e6,
            (flow_a.bytes_downloaded + flow_b.bytes_downloaded) / 1e6,
        ))
        key = name.split(" ")[0].replace("-", "_")
        metrics[f"hd_flows_{key}"] = float(hd_count)
        metrics[f"quota_mb_{key}"] = quota / 1e6

    metrics["binge_on_is_sub_hd"] = (
        1.0 if metrics["hd_flows_binge_on"] == 0 else 0.0
    )
    return ExperimentResult(
        experiment_id="E4",
        title="§2.2 video policy: blanket Binge On throttle vs PVN "
              "per-flow choice (important + casual stream)",
        columns=["scheme", "important video", "casual video", "HD flows",
                 "quota used (MB)", "bytes moved (MB)"],
        rows=rows,
        metrics=metrics,
        notes=[
            "1.5 Mbps shaping locks every stream below 720p (sub-HD), "
            "matching the Binge On measurement the paper cites",
            "the PVN policy gets HD where the user wants it while still "
            "zero-rating the casual stream — per-flow choice",
        ],
    )


if __name__ == "__main__":  # pragma: no cover
    main(run)
