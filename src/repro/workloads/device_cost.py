"""On-device cost model: battery and CPU (§3.2 "Why not on devices?").

"Network functionality implemented on mobile devices can consume
scarce resources such as battery life, CPU, memory, and wireless
bandwidth, and lead to worse network performance than doing nothing at
all."

The model uses radio/CPU energy constants in the range measured by the
smartphone-energy literature (Huang et al., MobiSys'12-era numbers),
parameterised so the benches can sweep them:

* WiFi radio: ~0.1 µJ/byte transferred (amortised, active state)
* Cellular radio: ~0.6 µJ/byte plus tail-time overhead
* CPU: ~1 J per second of active processing
* Deep packet inspection on-device: ~2 µs CPU per payload byte
"""

from __future__ import annotations

import dataclasses

from repro.errors import ConfigurationError

RADIO_WIFI = "wifi"
RADIO_CELL = "cell"


@dataclasses.dataclass(frozen=True)
class EnergyModel:
    """Per-device energy constants."""

    battery_joules: float = 4.2 * 3600 * 3.0     # ~3 Ah at 4.2 V ≈ 45 kJ
    wifi_joules_per_byte: float = 0.1e-6
    cell_joules_per_byte: float = 0.6e-6
    cell_tail_joules_per_wake: float = 0.5
    cpu_joules_per_second: float = 1.0
    dpi_cpu_seconds_per_byte: float = 2e-6

    def __post_init__(self) -> None:
        if self.battery_joules <= 0:
            raise ConfigurationError("battery capacity must be positive")

    def radio_energy(self, nbytes: int, radio: str = RADIO_WIFI,
                     wakes: int = 0) -> float:
        """Joules to move ``nbytes`` over the given radio."""
        if radio == RADIO_WIFI:
            return nbytes * self.wifi_joules_per_byte
        if radio == RADIO_CELL:
            return (nbytes * self.cell_joules_per_byte
                    + wakes * self.cell_tail_joules_per_wake)
        raise ConfigurationError(f"unknown radio {radio!r}")

    def inspection_energy(self, nbytes: int) -> float:
        """Joules of CPU to deep-inspect ``nbytes`` on the device."""
        return (nbytes * self.dpi_cpu_seconds_per_byte
                * self.cpu_joules_per_second)

    def battery_fraction(self, joules: float) -> float:
        """Fraction of a full battery consumed by ``joules``."""
        return joules / self.battery_joules


@dataclasses.dataclass
class DeviceCostReport:
    """Accumulated device-side costs for one scenario."""

    radio_joules: float = 0.0
    cpu_joules: float = 0.0

    @property
    def total_joules(self) -> float:
        return self.radio_joules + self.cpu_joules


def on_device_enforcement_cost(
    traffic_bytes: int,
    model: EnergyModel | None = None,
) -> DeviceCostReport:
    """Cost of running PVN-equivalent inspection on the device itself.

    The device both moves the traffic *and* burns CPU inspecting all
    of it.
    """
    model = model or EnergyModel()
    return DeviceCostReport(
        radio_joules=model.radio_energy(traffic_bytes),
        cpu_joules=model.inspection_energy(traffic_bytes),
    )


def in_network_enforcement_cost(
    traffic_bytes: int,
    model: EnergyModel | None = None,
) -> DeviceCostReport:
    """Device-side cost when the PVN does the inspection in-network:
    the device only pays to move its own traffic."""
    model = model or EnergyModel()
    return DeviceCostReport(
        radio_joules=model.radio_energy(traffic_bytes),
        cpu_joules=0.0,
    )


def cloud_tunnel_enforcement_cost(
    traffic_bytes: int,
    model: EnergyModel | None = None,
) -> DeviceCostReport:
    """Device-side cost of the VPN-to-cloud alternative: the same
    traffic plus 5 % tunnel encapsulation overhead crosses the radio."""
    model = model or EnergyModel()
    moved = int(traffic_bytes * 1.05)
    return DeviceCostReport(
        radio_joules=model.radio_energy(moved),
        cpu_joules=0.0,
    )
