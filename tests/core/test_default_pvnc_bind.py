"""``default_pvnc(user)`` binds one parsed template instead of parsing.

The bound copy must be indistinguishable from a parse of
``DEFAULT_PVNC_TEXT`` for the same user: equal fields, equal
attestation digest, equal policy digest — or, for a user the header
cannot carry through, the same ``ConfigurationError``.  A policy digest
carried from the template must not survive a ``replace`` that changes
the policy, and a device's retry jitter must draw what it drew when
the generator was derived eagerly.
"""

import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.device import Device
from repro.core.discovery.retry import RetryPolicy
from repro.core.pvnc import parse_pvnc
from repro.core.pvnc.compiler import UserEnvironment
from repro.core.session import DEFAULT_PVNC_TEXT, default_pvnc
from repro.errors import ConfigurationError

#: Characters that matter to the header line or to ``str.format``.
AWKWARD = ("#\"' \t\n\r\x0b\x0c\x1c\x85\xa0\u2028\u3000{}=:->"
           "\xe9\u96ea\U0001f600")

USERS = st.one_of(
    st.text(max_size=12),
    st.text(alphabet=st.sampled_from(AWKWARD + "abc"), max_size=8),
)


def parsed(user: str):
    return parse_pvnc(DEFAULT_PVNC_TEXT.format(user=user))


def outcome(build, user: str):
    try:
        return build(user), None
    except ConfigurationError as exc:
        return None, str(exc)


@settings(max_examples=400, deadline=None)
@given(USERS)
@example("")
@example("al#ice")
@example("al ice")
@example("alice\n")
@example("a\nmodule x")
@example('"bob"')
@example("{user}")
@example("élise")
@example("bob\x1c")
@example("bob\xa0")
def test_bind_equals_parse(user):
    bound, bound_error = outcome(default_pvnc, user)
    reference, reference_error = outcome(parsed, user)
    assert bound_error == reference_error
    if reference is None:
        return
    assert bound == reference
    assert bound.user == reference.user
    assert bound.digest() == reference.digest()
    assert bound.policy_digest == reference.policy_digest


@settings(max_examples=100, deadline=None)
@given(user=st.text(alphabet="abcxyz0123_", min_size=1, max_size=8),
       max_price=st.floats(min_value=0, max_value=1e6),
       dropped=st.sets(st.sampled_from(["transcoder", "tcp_proxy"])))
def test_replaced_policy_does_not_keep_the_carried_digest(
        user, max_price, dropped):
    bound = default_pvnc(user)
    reference = parsed(user)

    def change(pvnc):
        pvnc = dataclasses.replace(pvnc, constraints=dataclasses.replace(
            pvnc.constraints, max_price=max_price))
        return pvnc.without_services(dropped)

    assert change(bound).policy_digest == change(reference).policy_digest
    assert change(bound).digest() == change(reference).digest()


def test_bound_copies_share_the_template_and_its_policy_digest():
    alice, bob = default_pvnc("alice"), default_pvnc("bob")
    assert alice is not default_pvnc("alice")
    assert alice.modules is bob.modules
    assert alice.class_rules is bob.class_rules
    assert alice.policy_digest is bob.policy_digest
    assert alice.digest() != bob.digest()


@pytest.mark.parametrize("user", ["", " ", "#", "a b", "a\nb"])
def test_users_the_header_cannot_carry_fail_as_the_parser_does(user):
    with pytest.raises(ConfigurationError) as bound:
        default_pvnc(user)
    with pytest.raises(ConfigurationError) as reference:
        parsed(user)
    assert str(bound.value) == str(reference.value)


def test_a_comment_in_the_user_is_cut_as_the_parser_cuts_it():
    """``#`` ends the header line, so ``a#b`` is user ``a``."""
    assert default_pvnc("a#b") == parsed("a#b")
    assert default_pvnc("a#b").user == "a"
    assert default_pvnc("a#b").digest() == default_pvnc("a").digest()


def device(user: str = "alice") -> Device:
    return Device(user=user, mac="aa:bb:cc:00:00:01", env=UserEnvironment())


def test_retry_generator_is_derived_on_first_draw():
    fresh = device()
    assert "_retry_rng" not in vars(fresh)
    fresh._retry_rng.random()
    assert "_retry_rng" in vars(fresh)


def test_first_retry_draws_are_pinned():
    """The draws of the generator ``Device`` derived eagerly, for
    ``alice``: raw draws, then a default backoff schedule."""
    assert device()._retry_rng.random(3).tolist() == [
        0.9999278380790789, 0.331675349892659, 0.8823130050356641]
    assert RetryPolicy().backoff_schedule(device()._retry_rng) == [
        0.2199985567615816, 0.41326701399570637, 0.8705850404028532]
