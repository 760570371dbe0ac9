"""The attach path's allocation budget, pinned.

``attach_storm`` ends its timed attach phase about a thousand tracked
allocations short of a full (generation-2) collection, so a change that
makes each attach allocate a handful more GC-tracked objects pulls a
40-57 ms collection out of the untimed audit phase into the timed one:
a per-``Sandbox`` ``frozenset`` (six per attach) cost the workload 24 %
of its ``work_per_s`` with no change in total wall time.  Whatever the
attach path constructs (``Sandbox``, ``PvnDataPath``, ``Deployment``,
``FlowRule``, keyrings) may therefore not grow in tracked objects.
"""

import gc

from repro.core.device import Device
from repro.core.provider import AccessProvider
from repro.core.session import PvnSession, default_pvnc
from repro.netsim.topology import AccessNetworkSpec

ATTACHES = 50
#: Tracked objects 50 attaches leave behind at the parent of the commit
#: that added this test (161.06 per attach), measured by this test.
PARENT_GROWTH = 8053


def test_an_attach_allocates_no_more_tracked_objects_than_before():
    env = PvnSession.build(seed=0).device.env
    provider = AccessProvider(
        "isp", spec=AccessNetworkSpec(n_aps=4, n_nfv_hosts=2), seed=0)

    def attach(i: int) -> Device:
        user = f"u{i}"
        device = Device(user=user, mac=f"aa:bb:cc:00:00:{i:02x}", env=env)
        device.attach(provider, ap=f"ap{i % 4}")
        device.establish_pvn([provider], default_pvnc(user))
        return device

    devices = [attach(i) for i in range(10)]    # caches and tables warm
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        devices += [attach(i) for i in range(10, 10 + ATTACHES)]
        growth = len(gc.get_objects()) - before
    finally:
        if was_enabled:
            gc.enable()
    assert all(device.connection is not None for device in devices)
    assert growth <= PARENT_GROWTH, (
        f"{growth / ATTACHES:.2f} tracked objects per attach, "
        f"was {PARENT_GROWTH / ATTACHES:.2f}")
