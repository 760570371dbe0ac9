"""Tests for cloud-stored PVNCs (URI fetch) and multi-device reuse."""

import pytest

from repro.core import AccessProvider, PvnSession, default_pvnc
from repro.core.device import Device
from repro.core.pvnc.repository import PvncRepository, parse_uri, pvnc_uri
from repro.core.session import PvnSession as Session
from repro.errors import ConfigurationError


class TestUris:
    def test_uri_shape(self):
        pvnc = default_pvnc("alice")
        uri = pvnc_uri(pvnc)
        assert uri.startswith("pvnc://alice/secure-roaming@")
        user, name, digest = parse_uri(uri)
        assert user == "alice" and name == "secure-roaming"
        assert len(digest) == 16

    @pytest.mark.parametrize("bad", [
        "http://x/y@0123456789abcdef",
        "pvnc://alice@0123456789abcdef",
        "pvnc://alice/name@short",
        "pvnc://alice/name",
    ])
    def test_malformed_uris(self, bad):
        with pytest.raises(ConfigurationError):
            parse_uri(bad)


class TestRepository:
    def test_publish_fetch_roundtrip(self):
        repo = PvncRepository()
        pvnc = default_pvnc("alice")
        uri = repo.publish(pvnc)
        fetched = repo.fetch(uri)
        assert fetched.digest() == pvnc.digest()
        assert len(repo) == 1

    def test_missing_object(self):
        repo = PvncRepository()
        uri = pvnc_uri(default_pvnc("ghost"))
        with pytest.raises(ConfigurationError, match="no PVNC stored"):
            repo.fetch(uri)

    def test_tampered_object_detected(self):
        repo = PvncRepository()
        pvnc = default_pvnc("alice")
        uri = repo.publish(pvnc)
        evil = default_pvnc("alice").without_services({"pii_detector"})
        from repro.core.pvnc import render_pvnc

        repo.tamper("alice", "secure-roaming", render_pvnc(evil))
        with pytest.raises(ConfigurationError, match="tampered"):
            repo.fetch(uri)

    def test_tamper_requires_existing(self):
        with pytest.raises(ConfigurationError):
            PvncRepository().tamper("a", "b", "x")

    def test_republish_updates_uri(self):
        repo = PvncRepository()
        first = default_pvnc("alice")
        uri_first = repo.publish(first)
        changed = first.without_services({"transcoder"})
        uri_changed = repo.publish(changed)
        assert uri_first != uri_changed
        assert repo.fetch(uri_changed).digest() == changed.digest()
        # The old URI now fails: content changed under it.
        with pytest.raises(ConfigurationError):
            repo.fetch(uri_first)


class TestMultiDevice:
    def test_same_pvnc_backs_two_devices(self):
        """§3.1: 'A user can specify the same PVNC for multiple
        devices' — each gets its own deployment from the same URI."""
        session = PvnSession.build(seed=11)
        repo = PvncRepository()
        uri = repo.publish(default_pvnc("alice"))

        phone = session.device
        laptop = Device(user="alice", mac="aa:bb:cc:00:00:02",
                        env=phone.env, node_name="dev_alice_laptop")
        laptop.attach(session.provider, ap="ap1")
        phone.attach(session.provider)

        pvnc = repo.fetch(uri)
        phone_conn = phone.establish_pvn([session.provider], pvnc)
        laptop_conn = laptop.establish_pvn([session.provider], pvnc)

        assert phone_conn.deployment_id != laptop_conn.deployment_id
        assert phone_conn.device_ip != laptop_conn.device_ip
        # Same configuration digest attested for both deployments.
        assert (phone_conn.deployment.attestation.pvnc_digest
                == laptop_conn.deployment.attestation.pvnc_digest)
        assert session.provider.manager.active_count == 2

    def test_deployments_remain_per_device(self):
        session = PvnSession.build(seed=12)
        repo = PvncRepository()
        uri = repo.publish(default_pvnc("alice"))
        session.device.attach(session.provider)
        connection = session.device.establish_pvn(
            [session.provider], repo.fetch(uri)
        )
        # Tearing down one device's PVN leaves the config in the repo.
        session.provider.manager.teardown(connection.deployment_id)
        assert repo.fetch(uri).digest() == default_pvnc("alice").digest()
