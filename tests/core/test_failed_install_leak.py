"""A NACKed install must leave nothing running: a known bug, pinned.

``DeploymentManager._install`` launches a chain's containers one by one.
``place_chain`` checks each request against a host's free capacity
alone, not against the picks it already made for the same chain, so a
chain that fits element by element but not as a whole passes
placement.  The launch that overflows the host raises
``CapacityError``: the deployment is NACKed, and the containers
launched before it keep running with no deployment that owns them.
Below, ``nfv0`` is left with 3 live containers and all 18 MB in use.

Rolling the launched containers back changes E19's outcome (its FAST
run takes this path) and fails ``benchmarks/test_bench_orchestration.py``,
so the fix belongs with a re-baseline of E19.  When it lands, drop the
``xfail`` marker.
"""

import pytest

from repro.core.device import Device
from repro.core.provider import AccessProvider
from repro.core.session import PvnSession, default_pvnc
from repro.errors import NegotiationError
from repro.netsim.topology import AccessNetworkSpec
from repro.nfv.hypervisor import HostCapacity


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a failed install leaks the containers it launched")
def test_a_nacked_install_leaves_no_container_running():
    env = PvnSession.build(seed=0).device.env
    provider = AccessProvider(
        "isp", spec=AccessNetworkSpec(n_aps=1, n_nfv_hosts=1),
        nfv_capacity=HostCapacity(memory_bytes=18_000_000), seed=0)
    device = Device(user="alice", mac="aa:bb:cc:00:00:01", env=env)
    device.attach(provider, ap="ap0")
    with pytest.raises(NegotiationError, match="NACKed: CapacityError"):
        device.establish_pvn([provider], default_pvnc("alice"))
    assert provider.manager.deployments == {}
    host = provider.hosts["nfv0"]
    assert host.container_count == 0
    assert host.memory_in_use == 0
