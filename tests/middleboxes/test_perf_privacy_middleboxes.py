"""Tests for classifier, PII detector, transcoder, prefetcher,
compressor, and the split-TCP proxy middlebox."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.middleboxes.classifier import (
    CLASS_HTTPS,
    CLASS_KEY,
    CLASS_VIDEO_IMAGE,
    CLASS_WEB_TEXT,
    classify,
)
from repro.middleboxes import (
    CompressionProxy,
    PiiDetector,
    Prefetcher,
    SplitTcpProxy,
    TrafficClassifier,
    Transcoder,
)
from repro.middleboxes.prefetcher import LruCache
from repro.netproto.http import (
    CONTENT_IMAGE,
    CONTENT_TEXT,
    CONTENT_VIDEO,
    HttpRequest,
    HttpResponse,
)
from repro.netsim import Packet, PathCharacteristics
from repro.nfv import ProcessingContext
from repro.nfv.middlebox import VerdictKind


def ctx(**kwargs):
    return ProcessingContext(now=0.0, owner="alice", **kwargs)


def pkt(payload=None, **kwargs):
    defaults = dict(src="10.0.0.5", dst="93.184.216.34", owner="alice")
    defaults.update(kwargs)
    return Packet(payload=payload, **defaults)


class TestClassifier:
    @pytest.mark.parametrize(
        "packet,expected",
        [
            (pkt(HttpResponse(content_type=CONTENT_VIDEO)), CLASS_VIDEO_IMAGE),
            (pkt(HttpResponse(content_type=CONTENT_IMAGE)), CLASS_VIDEO_IMAGE),
            (pkt(HttpResponse(content_type=CONTENT_TEXT)), CLASS_WEB_TEXT),
            (pkt(HttpRequest("GET", "v.example", "/clip.mp4")), CLASS_VIDEO_IMAGE),
            (pkt(HttpRequest("GET", "w.example", "/index.html")), CLASS_WEB_TEXT),
            (pkt(dst_port=443), CLASS_HTTPS),
            (pkt(dst_port=53), "dns"),
            (pkt(dst_port=4444), "other"),
            (pkt(dst_port=80), CLASS_WEB_TEXT),
        ],
    )
    def test_classification(self, packet, expected):
        assert classify(packet) == expected

    def test_middlebox_annotates_and_counts(self):
        classifier = TrafficClassifier()
        packet = pkt(HttpResponse(content_type=CONTENT_VIDEO))
        verdict = classifier.process(packet, ctx())
        assert verdict.kind is VerdictKind.REWRITE
        assert packet.metadata[CLASS_KEY] == CLASS_VIDEO_IMAGE
        assert classifier.class_counts[CLASS_VIDEO_IMAGE] == 1


class TestPiiDetector:
    LEAKY_BODY = (b"user=jane&email=jane.doe@example.com"
                  b"&phone=617-555-1234&lat=42.36&lon=-71.06")

    def test_detect_mode_reports_but_passes_content(self):
        detector = PiiDetector(mode="detect")
        packet = pkt(HttpRequest("POST", "api.example", body=self.LEAKY_BODY))
        verdict = detector.process(packet, ctx())
        assert verdict.kind is VerdictKind.REWRITE
        assert packet.payload.body == self.LEAKY_BODY  # untouched
        types = set(dict(verdict.annotations)["types"].split(","))
        assert "email" in types and "phone" in types

    def test_scrub_mode_redacts(self):
        detector = PiiDetector(mode="scrub")
        packet = pkt(HttpRequest("POST", "api.example", body=self.LEAKY_BODY))
        detector.process(packet, ctx())
        assert b"jane.doe@example.com" not in packet.payload.body
        assert b"617-555-1234" not in packet.payload.body
        assert b"[REDACTED]" in packet.payload.body
        assert detector.leaks_scrubbed == 1

    def test_block_mode_drops(self):
        detector = PiiDetector(mode="block")
        packet = pkt(HttpRequest("POST", "api.example", body=self.LEAKY_BODY))
        verdict = detector.process(packet, ctx())
        assert verdict.kind is VerdictKind.DROP

    def test_clean_requests_pass(self):
        detector = PiiDetector()
        packet = pkt(HttpRequest("GET", "example.com", body=b"q=weather"))
        assert detector.process(packet, ctx()).kind is VerdictKind.PASS

    def test_pii_in_path_detected(self):
        detector = PiiDetector(mode="scrub")
        packet = pkt(HttpRequest(
            "GET", "ads.example", "/t?ad_id=ABCD-1234&x=1"
        ))
        verdict = detector.process(packet, ctx())
        assert verdict.kind is VerdictKind.REWRITE
        assert "ad_id=ABCD-1234" not in packet.payload.path

    def test_custom_strings(self):
        detector = PiiDetector(custom_strings=[b"Jane Q. Doe"])
        packet = pkt(HttpRequest("POST", "x.example", body=b"name=Jane Q. Doe"))
        verdict = detector.process(packet, ctx())
        assert "custom" in dict(verdict.annotations)["types"].split(",")

    def test_https_uninspectable_without_enclave(self):
        detector = PiiDetector()
        packet = pkt(HttpRequest("POST", "x.example", body=self.LEAKY_BODY,
                                 https=True))
        verdict = detector.process(packet, ctx())
        assert verdict.kind is VerdictKind.PASS

    def test_https_inspectable_with_trusted_execution(self):
        detector = PiiDetector(mode="block")
        packet = pkt(HttpRequest("POST", "x.example", body=self.LEAKY_BODY,
                                 https=True))
        verdict = detector.process(packet, ctx(trusted_execution=True))
        assert verdict.kind is VerdictKind.DROP

    def test_https_selective_tunnel(self):
        """Fig. 1(c): encrypted flows needing inspection tunnel out."""
        detector = PiiDetector(tunnel_encrypted_to="cloud")
        packet = pkt(HttpRequest("POST", "x.example", body=self.LEAKY_BODY,
                                 https=True))
        verdict = detector.process(packet, ctx())
        assert verdict.kind is VerdictKind.TUNNEL
        assert verdict.tunnel_endpoint == "cloud"

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            PiiDetector(mode="yolo")


class TestTranscoder:
    def test_video_transcoded_down(self):
        transcoder = Transcoder(quality="medium")
        body = b"v" * 10_000
        packet = pkt(HttpResponse(body=body, content_type=CONTENT_VIDEO),
                     size=10_100)
        verdict = transcoder.process(packet, ctx())
        assert verdict.kind is VerdictKind.REWRITE
        assert len(packet.payload.body) == 5_000
        assert packet.size == 5_100
        assert transcoder.bytes_saved == 5_000

    def test_text_untouched(self):
        transcoder = Transcoder()
        packet = pkt(HttpResponse(body=b"t" * 1000, content_type=CONTENT_TEXT))
        assert transcoder.process(packet, ctx()).kind is VerdictKind.PASS

    def test_original_quality_noop(self):
        transcoder = Transcoder(quality="original")
        packet = pkt(HttpResponse(body=b"v" * 100, content_type=CONTENT_VIDEO))
        assert transcoder.process(packet, ctx()).kind is VerdictKind.PASS

    def test_quality_levels_ordered(self):
        sizes = {}
        for quality in ("low", "medium", "high"):
            transcoder = Transcoder(quality=quality)
            packet = pkt(HttpResponse(body=b"v" * 10_000,
                                      content_type=CONTENT_VIDEO))
            transcoder.process(packet, ctx())
            sizes[quality] = len(packet.payload.body)
        assert sizes["low"] < sizes["medium"] < sizes["high"]

    def test_unknown_quality_rejected(self):
        with pytest.raises(ConfigurationError):
            Transcoder(quality="ultra")


class TestPrefetcher:
    def test_lru_eviction(self):
        cache = LruCache(capacity_bytes=250)
        cache.put("a", b"x" * 100)
        cache.put("b", b"y" * 100)
        cache.get("a")  # refresh a
        cache.put("c", b"z" * 100)  # evicts b (LRU)
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_oversized_object_not_cached(self):
        cache = LruCache(capacity_bytes=10)
        cache.put("big", b"x" * 100)
        assert "big" not in cache

    def test_cache_hit_annotates_request(self):
        prefetcher = Prefetcher()
        prefetcher.cache.put("http://w.example/a", b"body-a")
        packet = pkt(HttpRequest("GET", "w.example", "/a"))
        verdict = prefetcher.process(packet, ctx())
        assert verdict.kind is VerdictKind.REWRITE
        assert packet.metadata["served_from_cache"]
        assert packet.metadata["cached_body"] == b"body-a"
        assert prefetcher.hits == 1

    def test_cache_miss_passes(self):
        prefetcher = Prefetcher()
        packet = pkt(HttpRequest("GET", "w.example", "/missing"))
        assert prefetcher.process(packet, ctx()).kind is VerdictKind.PASS
        assert prefetcher.misses == 1

    def test_response_triggers_prefetch_of_links(self):
        fetched = []

        def fetch(url):
            fetched.append(url)
            return b"prefetched:" + url.encode()

        prefetcher = Prefetcher(fetch_callback=fetch)
        response = HttpResponse(
            body=b"<html>", headers={"x-links": "http://w/a,http://w/b"}
        )
        packet = pkt(response)
        packet.metadata["url"] = "http://w/index"
        prefetcher.process(packet, ctx())
        assert fetched == ["http://w/a", "http://w/b"]
        assert prefetcher.prefetches_issued == 2
        assert prefetcher.prefetch_bytes > 0
        # Prefetched objects now serve as hits.
        hit = pkt(HttpRequest("GET", "w", "/a"))
        hit.payload.https = False
        request = pkt(HttpRequest("GET", "w", "/a"))
        assert prefetcher.cache.get("http://w/a") is not None

    def test_prefetch_depth_limit(self):
        fetched = []
        prefetcher = Prefetcher(
            fetch_callback=lambda u: fetched.append(u) or b"x",
            prefetch_depth=2,
        )
        links = ",".join(f"http://w/{i}" for i in range(10))
        packet = pkt(HttpResponse(body=b"p", headers={"x-links": links}))
        prefetcher.process(packet, ctx())
        assert len(fetched) == 2

    def test_hit_rate(self):
        prefetcher = Prefetcher()
        prefetcher.cache.put("http://w/a", b"x")
        prefetcher.process(pkt(HttpRequest("GET", "w", "/a")), ctx())
        prefetcher.process(pkt(HttpRequest("GET", "w", "/b")), ctx())
        assert prefetcher.hit_rate == pytest.approx(0.5)


class TestCompressor:
    def test_text_compressed_and_decompressible(self):
        proxy = CompressionProxy()
        body = b"The quick brown fox. " * 200
        packet = pkt(HttpResponse(body=body, content_type=CONTENT_TEXT),
                     size=len(body) + 100)
        verdict = proxy.process(packet, ctx())
        assert verdict.kind is VerdictKind.REWRITE
        assert len(packet.payload.body) < len(body)
        assert CompressionProxy.decompress(packet.payload.body) == body
        assert packet.payload.header("content-encoding") == "deflate"
        assert proxy.bytes_saved > 0

    def test_video_skipped(self):
        proxy = CompressionProxy()
        packet = pkt(HttpResponse(body=b"v" * 5000, content_type=CONTENT_VIDEO))
        assert proxy.process(packet, ctx()).kind is VerdictKind.PASS

    def test_small_body_skipped(self):
        proxy = CompressionProxy(min_body_bytes=1000)
        packet = pkt(HttpResponse(body=b"small", content_type=CONTENT_TEXT))
        assert proxy.process(packet, ctx()).kind is VerdictKind.PASS

    def test_already_encoded_skipped(self):
        proxy = CompressionProxy()
        response = HttpResponse(body=b"x" * 1000, content_type=CONTENT_TEXT,
                                headers={"content-encoding": "gzip"})
        assert proxy.process(pkt(response), ctx()).kind is VerdictKind.PASS

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            CompressionProxy(level=0)


class TestSplitTcpProxyMiddlebox:
    def test_marks_tcp_flows(self):
        proxy = SplitTcpProxy()
        packet = pkt(protocol="tcp")
        verdict = proxy.process(packet, ctx())
        assert verdict.kind is VerdictKind.REWRITE
        assert packet.metadata["split_tcp"] == "tcp_proxy"
        assert proxy.flows_split == 1

    def test_ignores_udp(self):
        proxy = SplitTcpProxy()
        packet = pkt(protocol="udp")
        assert proxy.process(packet, ctx()).kind is VerdictKind.PASS

    def test_flow_level_split_beats_direct_on_lossy_leg(self):
        proxy = SplitTcpProxy()
        upstream = PathCharacteristics(rtt=0.08, loss_rate=0.0001,
                                       bandwidth_bps=1e9)
        downstream = PathCharacteristics(rtt=0.02, loss_rate=0.015,
                                         bandwidth_bps=40e6)
        split = np.mean([
            proxy.transfer_time(2_000_000, upstream, downstream,
                                np.random.default_rng(s)).duration
            for s in range(8)
        ])
        direct = np.mean([
            SplitTcpProxy.direct_transfer_time(
                2_000_000, upstream, downstream, np.random.default_rng(s)
            ).duration
            for s in range(8)
        ])
        assert split < direct
