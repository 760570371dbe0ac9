"""Protocol models: addresses, DNS, TLS, HTTP, DHCP."""

from repro.netproto.addresses import (
    SubnetAllocator,
    int_to_ip,
    ip_in_subnet,
    ip_to_int,
    parse_cidr,
)
from repro.netproto.dhcp import DhcpClient, DhcpMessage, DhcpServer, Lease
from repro.netproto.dns import (
    DnsQuery,
    DnsResponse,
    ForgingResolver,
    ResourceRecord,
    Resolver,
    TrustAnchor,
    Zone,
    ZoneSigner,
    cross_check,
)
from repro.netproto.http import HttpRequest, HttpResponse, body_digest
from repro.netproto.tls import (
    Certificate,
    CertificateAuthority,
    MitmInterceptor,
    RevocationList,
    TlsHandshake,
    TlsServer,
    TrustStore,
    ValidationResult,
    make_web_pki,
)

__all__ = [
    "Certificate",
    "CertificateAuthority",
    "DhcpClient",
    "DhcpMessage",
    "DhcpServer",
    "DnsQuery",
    "DnsResponse",
    "ForgingResolver",
    "HttpRequest",
    "HttpResponse",
    "Lease",
    "MitmInterceptor",
    "ResourceRecord",
    "Resolver",
    "RevocationList",
    "SubnetAllocator",
    "TlsHandshake",
    "TlsServer",
    "TrustAnchor",
    "TrustStore",
    "ValidationResult",
    "Zone",
    "ZoneSigner",
    "body_digest",
    "cross_check",
    "int_to_ip",
    "ip_in_subnet",
    "ip_to_int",
    "make_web_pki",
    "parse_cidr",
]
