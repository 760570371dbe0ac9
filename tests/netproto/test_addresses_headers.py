"""Tests for the address helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import AddressError
from repro.netproto.addresses import (
    SubnetAllocator,
    int_to_ip,
    ip_in_subnet,
    ip_to_int,
    parse_cidr,
)


class TestAddresses:
    def test_roundtrip(self):
        assert int_to_ip(ip_to_int("192.168.1.42")) == "192.168.1.42"

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_roundtrip_property(self, value):
        assert ip_to_int(int_to_ip(value)) == value

    @pytest.mark.parametrize("bad", ["1.2.3", "1.2.3.4.5", "a.b.c.d", "256.1.1.1", ""])
    def test_invalid_addresses(self, bad):
        with pytest.raises(AddressError):
            ip_to_int(bad)

    def test_parse_cidr(self):
        network, plen = parse_cidr("10.1.2.3/16")
        assert int_to_ip(network) == "10.1.0.0"
        assert plen == 16

    def test_parse_cidr_host(self):
        network, plen = parse_cidr("10.1.2.3")
        assert plen == 32 and int_to_ip(network) == "10.1.2.3"

    @pytest.mark.parametrize("bad", ["10.0.0.0/33", "10.0.0.0/x"])
    def test_bad_cidr(self, bad):
        with pytest.raises(AddressError):
            parse_cidr(bad)

    def test_subnet_membership(self):
        assert ip_in_subnet("10.1.2.3", "10.0.0.0/8")
        assert not ip_in_subnet("11.1.2.3", "10.0.0.0/8")
        assert ip_in_subnet("1.2.3.4", "0.0.0.0/0")

    def test_allocator_sequential_and_exhaustion(self):
        alloc = SubnetAllocator("10.0.0.0/30")  # 2 usable hosts
        assert alloc.allocate() == "10.0.0.1"
        assert alloc.allocate() == "10.0.0.2"
        with pytest.raises(AddressError):
            alloc.allocate()
        assert alloc.allocated_count == 2
