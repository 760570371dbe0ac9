"""The PVN middlebox catalogue (§4 of the paper)."""

from repro.middleboxes.classifier import TrafficClassifier
from repro.middleboxes.compressor import CompressionProxy
from repro.middleboxes.encryptor import DecryptionGateway, EncryptionEverywhere
from repro.middleboxes.dns_validator import DnsValidator
from repro.middleboxes.malware_detector import MalwareDetector
from repro.middleboxes.pii_detector import PiiDetector
from repro.middleboxes.prefetcher import Prefetcher
from repro.middleboxes.sensor_privacy import (
    ProtectedZone,
    SensorPrivacyGuard,
    SubjectPolicy,
)
from repro.middleboxes.tcp_proxy import SplitTcpProxy
from repro.middleboxes.tls_validator import TlsValidator
from repro.middleboxes.tracker_blocker import TrackerBlocker
from repro.middleboxes.transcoder import Transcoder

__all__ = [
    "CompressionProxy",
    "DecryptionGateway",
    "DnsValidator",
    "EncryptionEverywhere",
    "MalwareDetector",
    "PiiDetector",
    "Prefetcher",
    "ProtectedZone",
    "SensorPrivacyGuard",
    "SubjectPolicy",
    "SplitTcpProxy",
    "TlsValidator",
    "TrackerBlocker",
    "TrafficClassifier",
    "Transcoder",
]
