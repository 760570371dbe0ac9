"""Tests for device provider ranking, session fallback, and the CLI."""

import pytest

from repro.core import PvnSession, default_pvnc
from repro.core.device import Device
from repro.core.provider import AccessProvider
from repro.core.pvnc import UserEnvironment
from repro.errors import NegotiationError
from repro.nfv.hypervisor import HostCapacity


class TestRankProviders:
    def make_device(self):
        return Device("alice", "aa:bb:cc:00:00:01", UserEnvironment())

    def test_ranks_by_reputation_then_price(self):
        device = self.make_device()
        for _ in range(5):
            device.reputation.observe("good-isp", True)
        device.reputation.observe("meh-isp", False)  # 0.33: poor, not banned
        ranked = device.rank_providers(
            [("good-isp", 3.0), ("meh-isp", 0.5), ("unknown-isp", 1.0)]
        )
        assert ranked[0] == "good-isp"
        assert "meh-isp" in ranked  # poor but not yet blacklisted
        assert ranked.index("unknown-isp") < ranked.index("meh-isp")

    def test_blacklisted_excluded(self):
        device = self.make_device()
        for _ in range(10):
            device.reputation.observe("cheater", False)
        ranked = device.rank_providers([("cheater", 0.0), ("fresh", 1.0)])
        assert ranked == ["fresh"]

    def test_price_sensitivity(self):
        device = self.make_device()
        ranked = device.rank_providers(
            [("pricey", 10.0), ("cheap", 0.1)], price_weight=1.0
        )
        assert ranked[0] == "cheap"

    def test_empty_quotes(self):
        assert self.make_device().rank_providers([]) == []

    def test_audit_without_connection(self):
        with pytest.raises(NegotiationError):
            self.make_device().audit()


class TestAttachPath:
    def test_embedding_memo_does_not_grow_per_device(self):
        """Each device is its own topology node, so its memo entry is
        keyed on a name no later lookup repeats and snapshotted at a
        ``topo.version`` the next attach leaves behind: dead on
        arrival.  The index must shed such entries, not keep one per
        device for the life of the provider."""
        env = PvnSession.build(seed=0).device.env
        provider = AccessProvider(
            "isp", seed=0,
            nfv_capacity=HostCapacity(memory_bytes=10**12, cpu_cores=10**6))
        for i in range(300):
            device = Device(f"u{i}", f"aa:bb:cc:00:{i >> 8:02x}:{i & 255:02x}",
                            env)
            device.attach(provider, ap=f"ap{i % 2}")
            device.establish_pvn([provider], default_pvnc(f"u{i}"))
        stats = provider.manager.embedding_index.stats()
        assert stats["entries"] <= 2
        assert (stats["hits"], stats["misses"]) == (0, 300)


class TestSessionFallback:
    def test_fallback_tunnel_usable_when_pvn_unavailable(self):
        session = PvnSession.build(seed=6, supports_pvn=False)
        outcome = session.connect(default_pvnc())
        assert not outcome.deployed
        tunnel = session.fallback_tunnel("cloud")
        path = tunnel.effective_path("origin")
        assert path.rtt > 0
        costs = tunnel.costs()
        assert costs.added_rtt > 0

    def test_fallback_to_home(self):
        session = PvnSession.build(seed=6, supports_pvn=False)
        cloud = session.fallback_tunnel("cloud").costs().added_rtt
        home = session.fallback_tunnel("home").costs().added_rtt
        assert home > cloud


class TestCli:
    def test_main_runs_selected_experiments(self, capsys):
        from repro.__main__ import main

        assert main(["F1B"]) == 0
        out = capsys.readouterr().out
        assert "[F1B]" in out
        assert "physical-middlebox reuse" in out

    def test_main_rejects_unknown_ids(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["NOPE"])

    def test_main_seed_flag(self, capsys):
        from repro.__main__ import main

        assert main(["E4", "--seed", "3"]) == 0
        assert "binge-on" in capsys.readouterr().out


class TestJsonOutput:
    def test_json_flag(self, capsys):
        import json

        from repro.__main__ import main

        assert main(["F1B", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["F1B"]["metrics"]["containers_saved"] == 1
        assert document["F1B"]["columns"][0] == "mode"

    def test_to_dict_roundtrips_through_json(self):
        import json

        from repro.experiments import fig1b

        result = fig1b.run(seed=0)
        again = json.loads(json.dumps(result.to_dict()))
        assert again["experiment_id"] == "F1B"
        assert again["metrics"] == result.metrics
