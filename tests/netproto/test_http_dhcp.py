"""Tests for HTTP messages and DHCP with the PVN option."""

import pytest

from repro.errors import ProtocolError
from repro.netproto.dhcp import DhcpClient, DhcpServer, OPTION_PVN_SERVER
from repro.netproto.http import HttpRequest, HttpResponse, body_digest


class TestHttp:
    def test_request_url_and_headers(self):
        request = HttpRequest("GET", "example.com", "/a",
                              headers={"User-Agent": "test"}, https=True)
        assert request.url == "https://example.com/a"
        assert request.header("user-agent") == "test"
        assert request.header("USER-AGENT") == "test"
        assert request.header("missing", "d") == "d"

    def test_bad_method(self):
        with pytest.raises(ProtocolError):
            HttpRequest("YOLO", "example.com")

    def test_request_size_includes_body(self):
        small = HttpRequest("POST", "example.com", body=b"")
        big = HttpRequest("POST", "example.com", body=b"x" * 100)
        assert big.size_bytes == small.size_bytes + 100

    def test_response_defaults_content_type_header(self):
        response = HttpResponse(status=200, body=b"hi")
        assert response.header("content-type") == "text/html"

    def test_bad_status(self):
        with pytest.raises(ProtocolError):
            HttpResponse(status=99)

    def test_with_body_replaces_and_updates_length(self):
        response = HttpResponse(body=b"original" * 100,
                                content_type="video/mp4")
        smaller = response.with_body(b"transcoded", content_type="video/mp4")
        assert smaller.body == b"transcoded"
        assert smaller.header("content-length") == "10"
        assert response.body != smaller.body  # original untouched

    def test_body_digest_changes_with_content(self):
        a = HttpResponse(body=b"aaa")
        b = HttpResponse(body=b"bbb")
        assert body_digest(a) != body_digest(b)
        assert body_digest(a) == body_digest(HttpResponse(body=b"aaa"))


class TestDhcp:
    def test_full_exchange_with_pvn_option(self):
        server = DhcpServer("10.10.0.0/24", pvn_server="pvn.isp.net")
        client = DhcpClient(mac="aa:aa:aa:aa:aa:01")
        assert client.run_exchange(server, now=0.0)
        assert client.ip.startswith("10.10.0.")
        assert client.pvn_server == "pvn.isp.net"
        assert client.network_supports_pvn

    def test_exchange_without_pvn_support(self):
        server = DhcpServer("10.10.0.0/24")
        client = DhcpClient(mac="aa:aa:aa:aa:aa:02")
        assert client.run_exchange(server, now=0.0)
        assert not client.network_supports_pvn

    def test_distinct_clients_distinct_ips(self):
        server = DhcpServer("10.10.0.0/24", pvn_server="pvn")
        ips = set()
        for i in range(5):
            client = DhcpClient(mac=f"aa:aa:aa:aa:aa:{i:02x}")
            client.run_exchange(server, now=0.0)
            ips.add(client.ip)
        assert len(ips) == 5

    def test_same_client_keeps_lease(self):
        server = DhcpServer("10.10.0.0/24")
        client = DhcpClient(mac="aa:aa:aa:aa:aa:01")
        client.run_exchange(server, now=0.0)
        first_ip = client.ip
        client.run_exchange(server, now=10.0)
        assert client.ip == first_ip

    def test_wrong_message_kinds_rejected(self):
        server = DhcpServer("10.10.0.0/24")
        client = DhcpClient(mac="aa:aa:aa:aa:aa:01")
        discover = client.discover()
        with pytest.raises(ProtocolError):
            server.handle_request(discover, now=0.0)
        offer = server.handle_discover(discover, now=0.0)
        with pytest.raises(ProtocolError):
            client.request_from_offer(discover)
        with pytest.raises(ProtocolError):
            client.absorb_ack(offer)

    def test_pvn_refresh_moves_client_into_pvn_subnet(self):
        """§3.1: deployment ACK triggers a DHCP refresh with new address."""
        server = DhcpServer("10.10.0.0/24", pvn_server="pvn")
        client = DhcpClient(mac="aa:aa:aa:aa:aa:01")
        client.run_exchange(server, now=0.0)
        server.register_pvn_subnet("dep-1", "10.200.1.0/28")
        lease = server.refresh_into_pvn(client.mac, "dep-1", now=5.0)
        assert lease.ip.startswith("10.200.1.")
        assert server.leases[client.mac].ip == lease.ip

    def test_refresh_requires_known_deployment_and_lease(self):
        server = DhcpServer("10.10.0.0/24")
        with pytest.raises(ProtocolError):
            server.refresh_into_pvn("aa:aa:aa:aa:aa:01", "ghost", now=0.0)
        server.register_pvn_subnet("dep-1", "10.200.1.0/28")
        with pytest.raises(ProtocolError):
            server.refresh_into_pvn("aa:aa:aa:aa:aa:01", "dep-1", now=0.0)

    def test_option_lookup(self):
        server = DhcpServer("10.10.0.0/24", pvn_server="pvn.isp.net")
        client = DhcpClient(mac="aa:aa:aa:aa:aa:09")
        offer = server.handle_discover(client.discover(), now=0.0)
        assert offer.option(OPTION_PVN_SERVER) == "pvn.isp.net"
        assert offer.option("missing") == ""
