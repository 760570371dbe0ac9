"""Protocol models: addresses, DNS, TLS, HTTP, DHCP."""

from repro.netproto.tls import CertificateAuthority, MitmInterceptor

__all__ = [
    "CertificateAuthority",
    "MitmInterceptor",
]
