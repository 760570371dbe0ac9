"""E3 — §2.2 split-connection TCP proxies.

"Previous work shows that splitting TCP connections should offer
better client-perceived performance than direct connections if the
proxy is on the same path ... However, recent work shows that the
impact of such proxies is mixed: devices with better link quality
benefited most from proxying, and the rest could receive worse
performance due to proxying overheads."

Sweep the wireless last-mile quality (loss rate) and the transfer
size, comparing direct transfers against split transfers through an
in-network proxy.  The expected shape: big wins for bulk transfers
on lossy links (local loss recovery), shrinking to a *loss* for small
objects on clean links where the proxy's connection-setup overhead
dominates.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.stats import speedup, summarize
from repro.experiments.harness import ExperimentResult, main
from repro.middleboxes.tcp_proxy import SplitTcpProxy
from repro.netsim.tcp import PathCharacteristics

#: Server -> proxy leg: wired, clean, fast (the proxy is in-network).
UPSTREAM = PathCharacteristics(rtt=0.080, loss_rate=0.0001,
                               bandwidth_bps=1e9)


def _downstream(loss: float) -> PathCharacteristics:
    return PathCharacteristics(rtt=0.025, loss_rate=loss,
                               bandwidth_bps=40e6)


def run(
    seed: int = 0,
    loss_rates: tuple[float, ...] = (0.0001, 0.001, 0.005, 0.01, 0.02, 0.05),
    trials: int = 12,
) -> ExperimentResult:
    # A warm proxy has its splice ready (2ms); a cold one pays the
    # full container spin-up the paper cites (30ms) before splicing.
    small_bytes = 20_000
    bulk_bytes = 2_000_000
    warm = SplitTcpProxy(connection_setup=0.002, name="warm")
    cold = SplitTcpProxy(connection_setup=0.032, name="cold")
    rows = []
    metrics: dict[str, float] = {}

    scenarios = (
        (bulk_bytes, "bulk", warm),
        (small_bytes, "small", warm),
        (small_bytes, "small-cold", cold),
    )
    for size, label, proxy in scenarios:
        for loss in loss_rates:
            downstream = _downstream(loss)
            direct = summarize([
                SplitTcpProxy.direct_transfer_time(
                    size, UPSTREAM, downstream,
                    np.random.default_rng(seed * 100 + t),
                ).duration
                for t in range(trials)
            ])
            split = summarize([
                proxy.transfer_time(
                    size, UPSTREAM, downstream,
                    np.random.default_rng(seed * 100 + t),
                ).duration
                for t in range(trials)
            ])
            gain = speedup(direct.mean, split.mean)
            rows.append((
                label, f"{loss:.2%}",
                direct.mean, split.mean, f"x{gain:.2f}",
                "split wins" if gain > 1.0 else "direct wins",
            ))
            metrics[f"speedup_{label}_loss_{loss:g}"] = gain

    crossover = any(
        metrics[f"speedup_small-cold_loss_{loss:g}"] < 1.0
        for loss in loss_rates[:2]
    )
    metrics["small_clean_crossover"] = 1.0 if crossover else 0.0
    return ExperimentResult(
        experiment_id="E3",
        title="§2.2 split-TCP: direct vs proxied download time across "
              "last-mile quality",
        columns=["transfer", "last-mile loss", "direct (s)", "split (s)",
                 "speedup", "winner"],
        rows=rows,
        metrics=metrics,
        notes=[
            "split connections recover last-mile losses over a 25ms loop "
            "instead of the full 105ms path; wins grow with loss",
            "for small objects on clean paths the proxy's setup overhead "
            "makes splitting a net loss — the paper's 'mixed results'",
        ],
    )


if __name__ == "__main__":  # pragma: no cover
    main(run)
