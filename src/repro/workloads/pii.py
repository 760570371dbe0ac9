"""Synthetic PII corpus with ground truth.

The PII experiments (E5) need labelled traffic: requests that *do*
leak personal information and requests that don't, so detection and
blocking rates can be computed exactly.  Real traces (ReCon's dataset)
are not redistributable; synthesis with ground truth preserves the
property the experiment measures — whether the in-network detector
finds what is actually there.
"""

from __future__ import annotations

import dataclasses

import numpy as np


@dataclasses.dataclass(frozen=True)
class UserProfile:
    """One synthetic user's personal information."""

    user_id: str
    email: str
    phone: str
    ssn: str
    latitude: float
    longitude: float
    password: str
    ad_id: str

    def pii_values(self) -> dict[str, bytes]:
        return {
            "email": self.email.encode(),
            "phone": self.phone.encode(),
            "ssn": self.ssn.encode(),
            "location": (
                f"lat={self.latitude:.4f}&lon={self.longitude:.4f}".encode()
            ),
            "password": f"password={self.password}".encode(),
            "device_id": f"ad_id={self.ad_id}".encode(),
        }


def synth_user(rng: np.random.Generator, user_id: str = "") -> UserProfile:
    """Generate one user whose PII matches the detector's pattern space."""
    number = rng.integers(0, 10**9)
    user_id = user_id or f"user{number}"
    return UserProfile(
        user_id=user_id,
        email=f"{user_id}@mail.example.com",
        phone=(f"{rng.integers(200, 999)}-{rng.integers(200, 999)}"
               f"-{rng.integers(1000, 9999)}"),
        ssn=(f"{rng.integers(100, 899)}-{rng.integers(10, 99)}"
             f"-{rng.integers(1000, 9999)}"),
        latitude=float(rng.uniform(-90, 90)),
        longitude=float(rng.uniform(-180, 180)),
        password="".join(
            rng.choice(list("abcdefghjkmnpqrstuvwxyz23456789"), size=10)
        ),
        ad_id="-".join(
            "".join(rng.choice(list("ABCDEF0123456789"), size=4))
            for _ in range(4)
        ),
    )


@dataclasses.dataclass(frozen=True)
class LabelledRequest:
    """One HTTP request body + its ground-truth leak labels."""

    host: str
    body: bytes
    https: bool
    leaked_types: tuple[str, ...]     # empty = clean

    @property
    def leaks(self) -> bool:
        return bool(self.leaked_types)


THIRD_PARTY_HOSTS = ("ads.example", "analytics.example", "cdn.tracker.example")
FIRST_PARTY_HOSTS = ("app.example.com", "api.example.com", "sync.example.com")

CLEAN_BODIES = (
    b"action=refresh&screen=home",
    b"query=weather+boston&units=metric",
    b"article=1234&position=0.7",
    b"version=2.1&locale=en_US",
)


def synth_request_stream(
    user: UserProfile,
    rng: np.random.Generator,
    n_requests: int = 200,
    leak_probability: float = 0.3,
    https_fraction: float = 0.4,
) -> list[LabelledRequest]:
    """A labelled stream of requests, a fraction of which leak PII.

    Leaking requests embed one to three of the user's PII values in an
    otherwise ordinary form body; the paper's motivating observation is
    that much of this goes to third parties and/or travels unencrypted.
    """
    pii = user.pii_values()
    pii_types = sorted(pii)
    requests: list[LabelledRequest] = []
    for _ in range(n_requests):
        https = bool(rng.random() < https_fraction)
        if rng.random() < leak_probability:
            count = int(rng.integers(1, 4))
            chosen = list(
                rng.choice(pii_types, size=min(count, len(pii_types)),
                           replace=False)
            )
            body = b"&".join(
                [CLEAN_BODIES[int(rng.integers(len(CLEAN_BODIES)))]]
                + [pii[t] for t in chosen]
            )
            third_party = bool(rng.random() < 0.6)
            host = (THIRD_PARTY_HOSTS if third_party
                    else FIRST_PARTY_HOSTS)[int(rng.integers(3))]
            requests.append(LabelledRequest(
                host=host, body=body, https=https,
                leaked_types=tuple(sorted(chosen)),
            ))
        else:
            host = FIRST_PARTY_HOSTS[int(rng.integers(3))]
            body = CLEAN_BODIES[int(rng.integers(len(CLEAN_BODIES)))]
            requests.append(LabelledRequest(
                host=host, body=body, https=https,
                leaked_types=(),
            ))
    return requests


@dataclasses.dataclass
class DetectionScore:
    """Detector performance against ground truth."""

    true_positives: int = 0
    false_positives: int = 0
    false_negatives: int = 0

    @property
    def recall(self) -> float:
        denom = self.true_positives + self.false_negatives
        return self.true_positives / denom if denom else 0.0

    @property
    def precision(self) -> float:
        denom = self.true_positives + self.false_positives
        return self.true_positives / denom if denom else 0.0


def score_detection(
    labelled: list[LabelledRequest], flagged: list[bool]
) -> DetectionScore:
    """Compare detector flags against ground truth, request-level."""
    score = DetectionScore()
    for request, was_flagged in zip(labelled, flagged):
        if request.leaks and was_flagged:
            score.true_positives += 1
        elif request.leaks and not was_flagged:
            score.false_negatives += 1
        elif not request.leaks and was_flagged:
            score.false_positives += 1
    return score
