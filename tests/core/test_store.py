"""Tests for the PVN Store: publishing, signing, installing."""

import pytest

from repro.core.store import PvnStore, SigningKey
from repro.core.store.catalog import module_digest
from repro.core.store.signing import sign_module, verify_bundle
from repro.errors import ModuleSignatureError, StoreError
from repro.nfv.middlebox import Middlebox
from repro.nfv.sandbox import Capability


@pytest.fixture
def store():
    store = PvnStore(SigningKey("store", b"store-key"))
    store.register_developer(SigningKey("acme", b"acme-key"))
    return store


def factory():
    return Middlebox("acme_blocker")


class TestSigning:
    def test_bundle_verifies(self):
        dev = SigningKey("acme", b"acme-key")
        store_key = SigningKey("store", b"store-key")
        digest = module_digest("m", "1.0", "acme")
        bundle = sign_module(digest, dev).with_store_signature(store_key)
        verify_bundle(bundle, {"acme": dev}, store_key)  # no raise

    def test_unknown_developer_rejected(self):
        dev = SigningKey("acme", b"acme-key")
        store_key = SigningKey("store", b"store-key")
        bundle = sign_module(b"d" * 32, dev).with_store_signature(store_key)
        with pytest.raises(ModuleSignatureError, match="unknown developer"):
            verify_bundle(bundle, {}, store_key)

    def test_forged_developer_signature_rejected(self):
        real = SigningKey("acme", b"acme-key")
        imposter = SigningKey("acme", b"stolen-wrong-key")
        store_key = SigningKey("store", b"store-key")
        bundle = sign_module(b"d" * 32, imposter).with_store_signature(store_key)
        with pytest.raises(ModuleSignatureError, match="developer signature"):
            verify_bundle(bundle, {"acme": real}, store_key)

    def test_missing_store_signature_rejected(self):
        dev = SigningKey("acme", b"acme-key")
        store_key = SigningKey("store", b"store-key")
        bundle = sign_module(b"d" * 32, dev)  # never countersigned
        with pytest.raises(ModuleSignatureError, match="store signature"):
            verify_bundle(bundle, {"acme": dev}, store_key)


class TestStore:
    def test_publish_and_install(self, store):
        dev = SigningKey("acme", b"acme-key")
        store.publish("acme_blocker", "1.0", dev, factory, price=0.5,
                      description="blocks acme ads")
        got_factory, capabilities, price = store.install("acme_blocker")
        assert got_factory().name == "acme_blocker"
        assert price == 0.5
        assert capabilities & Capability.OBSERVE
        assert store.revenue == 0.5

    def test_unregistered_developer_cannot_publish(self, store):
        rogue = SigningKey("rogue", b"rogue-key")
        with pytest.raises(StoreError, match="not registered"):
            store.publish("bad", "1.0", rogue, factory)

    def test_latest_version_wins(self, store):
        dev = SigningKey("acme", b"acme-key")
        store.publish("m", "1.0", dev, factory, price=1.0)
        store.publish("m", "2.0", dev, factory, price=2.0)
        _, _, price = store.install("m")
        assert price == 2.0
        assert len(store.search("m")) == 2

    def test_unknown_module(self, store):
        with pytest.raises(StoreError, match="no module"):
            store.install("ghost")

    def test_budget_enforced(self, store):
        dev = SigningKey("acme", b"acme-key")
        store.publish("pricey", "1.0", dev, factory, price=9.0)
        with pytest.raises(StoreError, match="budget"):
            store.install("pricey", budget=1.0)

    def test_negative_price_rejected(self, store):
        dev = SigningKey("acme", b"acme-key")
        with pytest.raises(StoreError):
            store.publish("m", "1.0", dev, factory, price=-1.0)

    def test_download_counter(self, store):
        dev = SigningKey("acme", b"acme-key")
        store.publish("m", "1.0", dev, factory)
        store.install("m")
        store.install("m")
        assert store.latest("m").downloads == 2

    def test_services_listing(self, store):
        dev = SigningKey("acme", b"acme-key")
        store.publish("a", "1.0", dev, factory)
        store.publish("b", "1.0", dev, factory)
        assert store.services == {"a", "b"}
