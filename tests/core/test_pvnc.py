"""Tests for the PVNC model, DSL, validation, and compiler."""

import dataclasses

import pytest

from repro.core.pvnc.model import ClassRule, Constraints, ModuleSpec, Pvnc
from repro.core.pvnc import (
    UserEnvironment,
    compile_pvnc,
    parse_pvnc,
    render_pvnc,
)
from repro.core.pvnc.compiler import build_middleboxes, builtin_services
from repro.core.pvnc.validation import ensure_valid, validate_pvnc
from repro.core.session import DEFAULT_PVNC_TEXT, default_pvnc
from repro.errors import CompilationError, ConfigurationError
from repro.netproto.tls import TrustStore


def simple_pvnc(**overrides):
    kwargs = dict(
        user="alice",
        name="test",
        modules=(
            ModuleSpec.make("pii_detector", mode="scrub"),
            ModuleSpec.make("transcoder", quality="low"),
        ),
        class_rules=(
            ClassRule("web_text", ("pii_detector",)),
            ClassRule("video_image", ("transcoder",)),
            ClassRule("default", ()),
        ),
    )
    kwargs.update(overrides)
    return Pvnc(**kwargs)


class TestModel:
    def test_module_lookup_and_params(self):
        pvnc = simple_pvnc()
        spec = pvnc.module("pii_detector")
        assert spec is not None
        assert spec.param("mode") == "scrub"
        assert spec.param("missing", "d") == "d"
        assert pvnc.module("ghost") is None

    def test_used_services_in_first_use_order(self):
        pvnc = simple_pvnc()
        assert pvnc.used_services() == ("pii_detector", "transcoder")

    def test_rule_for_falls_back_to_default(self):
        pvnc = simple_pvnc()
        assert pvnc.rule_for("web_text").pipeline == ("pii_detector",)
        assert pvnc.rule_for("https").traffic_class == "default"

    def test_duplicate_class_rejected(self):
        with pytest.raises(ConfigurationError):
            simple_pvnc(class_rules=(
                ClassRule("web_text", ()),
                ClassRule("web_text", ()),
            ))

    def test_unknown_class_rejected(self):
        with pytest.raises(ConfigurationError):
            ClassRule("carrier_pigeon", ())

    def test_bad_terminal_rejected(self):
        with pytest.raises(ConfigurationError):
            ClassRule("web_text", (), terminal="teleport")

    def test_tunnel_terminal_endpoint(self):
        rule = ClassRule("https", (), terminal="tunnel:cloud")
        assert rule.tunnel_endpoint == "cloud"
        assert ClassRule("https", ()).tunnel_endpoint == ""

    def test_without_services_trims_modules_and_pipelines(self):
        pvnc = simple_pvnc()
        trimmed = pvnc.without_services({"transcoder"})
        assert trimmed.services == ("pii_detector",)
        assert trimmed.rule_for("video_image").pipeline == ()
        # Nothing to drop: the same frozen instance, so the provider
        # compiles (and attests) the object the device already hashed.
        assert pvnc.without_services(set()) is pvnc

    def test_digest_stable_and_sensitive(self):
        a = simple_pvnc()
        b = simple_pvnc()
        assert a.digest() == b.digest()
        c = simple_pvnc(name="other")
        assert a.digest() != c.digest()
        d = a.without_services({"transcoder"})
        assert a.digest() != d.digest()

    def test_digest_computed_once_per_instance(self):
        pvnc = simple_pvnc()
        assert pvnc.digest() is pvnc.digest()
        # replace() builds a new instance, which must not inherit it.
        other = dataclasses.replace(pvnc, user="mallory")
        assert other.digest() != pvnc.digest()
        assert other.digest() == simple_pvnc(user="mallory").digest()
        assert dataclasses.replace(other, user=pvnc.user).digest() == (
            pvnc.digest())
        assert other == dataclasses.replace(pvnc, user="mallory")

    def test_tunnel_endpoints_collected(self):
        pvnc = simple_pvnc(class_rules=(
            ClassRule("https", (), terminal="tunnel:cloud"),
            ClassRule("web_text", (), terminal="tunnel:home"),
            ClassRule("default", ()),
        ), modules=())
        assert pvnc.tunnel_endpoints() == ("cloud", "home")

    def test_constraints_validation(self):
        with pytest.raises(ConfigurationError):
            Constraints(max_price=-1)


class TestDsl:
    def test_parse_default_pvnc(self):
        pvnc = default_pvnc("bob")
        assert pvnc.user == "bob"
        assert pvnc.name == "secure-roaming"
        assert "tls_validator" in pvnc.services
        assert pvnc.constraints.max_price == 10.0
        assert pvnc.constraints.max_added_latency == pytest.approx(0.001)

    def test_roundtrip_preserves_digest(self):
        pvnc = default_pvnc()
        again = parse_pvnc(render_pvnc(pvnc))
        assert again.digest() == pvnc.digest()

    def test_comments_and_blank_lines_ignored(self):
        pvnc = parse_pvnc(
            '# a comment\n\npvnc "x" for u\n'
            "module transcoder  # trailing comment\n"
            "class video_image: transcoder -> forward\n"
        )
        assert pvnc.services == ("transcoder",)

    def test_missing_header_rejected(self):
        with pytest.raises(ConfigurationError, match="header"):
            parse_pvnc("module transcoder\n")

    def test_undeclared_module_in_class_rejected(self):
        with pytest.raises(ConfigurationError, match="undeclared"):
            parse_pvnc('pvnc "x" for u\nclass web_text: ghost -> forward\n')

    def test_undeclared_constraint_module_rejected(self):
        with pytest.raises(ConfigurationError, match="undeclared"):
            parse_pvnc('pvnc "x" for u\nrequire ghost\n')

    def test_line_numbers_in_errors(self):
        with pytest.raises(ConfigurationError, match="line 3"):
            parse_pvnc('pvnc "x" for u\nmodule transcoder\nbogus line here\n')

    def test_tunnel_terminal_parsed(self):
        pvnc = parse_pvnc(
            'pvnc "x" for u\nclass https: tunnel:cloud\n'
        )
        assert pvnc.rule_for("https").tunnel_endpoint == "cloud"

    def test_module_options(self):
        pvnc = parse_pvnc(
            'pvnc "x" for u\n'
            "module transcoder quality=low reuse=yes\n"
            "module custom_thing from=store\n"
        )
        transcoder = pvnc.module("transcoder")
        assert transcoder.param("quality") == "low"
        assert transcoder.allow_physical_reuse
        assert pvnc.module("custom_thing").source == "store"

    @pytest.mark.parametrize("bad", [
        'pvnc "x" for u\nmodule\n',
        'pvnc "x" for u\nmodule t badoption\n',
        'pvnc "x" for u\nmodule t reuse=maybe\n',
        'pvnc "x" for u\nmodule t from=elsewhere\n',
        'pvnc "x" for u\nbudget -3\n',
        'pvnc "x" for u\nmax-latency 5\n',
        'pvnc "x" for u\nclass web_text:\n',
        'pvnc "x" for u\nmodule t\nclass web_text: t -> -> forward\n',
        # Each of these once escaped as IndexError, TypeError or
        # ValueError, or (NaN) parsed.
        'pvnc "x" for u\nbudget\n',
        'pvnc "x" for u\nmodule t service=s\n',
        'pvnc "x" for u\nmodule t source=store\n',
        'pvnc "x" for u\nmodule t allow_physical_reuse=yes\n',
        'pvnc "x" for u\nmodule t cls=c\n',
        'pvnc "x" for u\nmodule t msg="unclosed\n',
        "pvnc \"x\" for u\nmodule t msg='unclosed\n",
        'pvnc "x" for u\nmodule t msg="a # b"\n',
        'pvnc "x" for u\nmodule t msg=trailing\\\n',
        'pvnc "x" for u\nbudget nan\n',
        'pvnc "x" for u\nmax-latency nan ms\n',
    ])
    def test_syntax_errors(self, bad):
        with pytest.raises(ConfigurationError, match=r"^line \d+: "):
            parse_pvnc(bad)

    def test_budget_inf_means_no_budget(self):
        pvnc = parse_pvnc('pvnc "x" for u\nbudget inf\n')
        assert pvnc.constraints.max_price == float("inf")

    def test_module_values_quoted_like_sh(self):
        pvnc = parse_pvnc(
            'pvnc "x" for u\n'
            """module t a='x y' b="q \\" \\\\ \\z" c=x\\ y d='' e\xa0f=g\n"""
        )
        assert pvnc.module("t").params == (
            ("a", "x y"), ("b", 'q " \\ \\z'), ("c", "x y"), ("d", ""),
            ("e\xa0f", "g"))


class TestValidation:
    def test_valid_config_no_problems(self):
        assert validate_pvnc(simple_pvnc(), builtin_services()) == []

    def test_unknown_builtin_flagged(self):
        pvnc = simple_pvnc(modules=(ModuleSpec.make("quantum_filter"),),
                           class_rules=(ClassRule("default", ()),))
        problems = validate_pvnc(pvnc, builtin_services())
        assert any("unknown builtin" in p for p in problems)

    def test_store_module_requires_store_presence(self):
        pvnc = simple_pvnc(
            modules=(ModuleSpec.make("fancy", source="store"),),
            class_rules=(ClassRule("default", ()),),
        )
        missing = validate_pvnc(pvnc, builtin_services(), set())
        assert any("not found in the PVN Store" in p for p in missing)
        ok = validate_pvnc(pvnc, builtin_services(), {"fancy"})
        assert ok == []

    def test_latency_budget_checked(self):
        pvnc = simple_pvnc(constraints=Constraints(max_added_latency=1e-6))
        problems = validate_pvnc(pvnc, builtin_services())
        assert any("max-latency" in p for p in problems)

    def test_required_preferred_overlap_flagged(self):
        pvnc = simple_pvnc(constraints=Constraints(
            required_services=("pii_detector",),
            preferred_services=("pii_detector",),
        ))
        problems = validate_pvnc(pvnc, builtin_services())
        assert any("both required and preferred" in p for p in problems)

    def test_ensure_valid_raises_with_all_problems(self):
        pvnc = simple_pvnc(modules=(ModuleSpec.make("ghost1"),),
                           class_rules=(ClassRule("default", ("ghost2",)),))
        with pytest.raises(ConfigurationError) as excinfo:
            ensure_valid(pvnc, builtin_services())
        assert "ghost1" in str(excinfo.value)
        assert "ghost2" in str(excinfo.value)


class TestCompiler:
    def test_classifier_always_first(self):
        compiled = compile_pvnc(simple_pvnc())
        assert compiled.deployment_services[0] == "classifier"
        assert set(compiled.deployment_services) == {
            "classifier", "pii_detector", "transcoder"
        }

    def test_match_is_owner_scoped(self):
        compiled = compile_pvnc(simple_pvnc())
        assert compiled.pvn_match.owner == "alice"

    def test_estimate_scales_with_services(self):
        small = compile_pvnc(simple_pvnc())
        big = compile_pvnc(default_pvnc())
        assert big.estimate.containers > small.estimate.containers
        assert big.estimate.memory_bytes == (
            big.estimate.containers * 6_000_000
        )

    def test_terminal_and_pipeline_lookup(self):
        compiled = compile_pvnc(default_pvnc())
        assert compiled.terminal_for("https") == "forward"
        assert compiled.pipeline_for("video_image") == (
            "transcoder", "tcp_proxy"
        )
        assert compiled.pipeline_for("other") == ()

    def test_reuse_flag_propagates_to_placement(self):
        compiled = compile_pvnc(default_pvnc())
        by_service = {r.service: r for r in compiled.placement_requests}
        assert by_service["tcp_proxy"].allow_physical_reuse
        assert not by_service["tls_validator"].allow_physical_reuse

    def test_invalid_pvnc_rejected(self):
        pvnc = simple_pvnc(modules=(ModuleSpec.make("ghost"),),
                           class_rules=(ClassRule("default", ()),))
        with pytest.raises(ConfigurationError):
            compile_pvnc(pvnc)

    def test_build_middleboxes_uses_env(self):
        pvnc = parse_pvnc(
            'pvnc "x" for u\nmodule tls_validator mode=warn\n'
            "class https: tls_validator -> forward\n"
        )
        compiled = compile_pvnc(pvnc)
        env = UserEnvironment(trust_store=TrustStore())
        boxes = build_middleboxes(compiled, env)
        assert boxes["tls_validator"].mode == "warn"
        assert "classifier" in boxes

    def test_build_middleboxes_missing_trust_material(self):
        pvnc = parse_pvnc(
            'pvnc "x" for u\nmodule tls_validator\n'
            "class https: tls_validator -> forward\n"
        )
        compiled = compile_pvnc(pvnc)
        with pytest.raises(CompilationError, match="trust_store"):
            build_middleboxes(compiled, UserEnvironment())

    def test_store_module_needs_factory(self):
        pvnc = simple_pvnc(
            modules=(ModuleSpec.make("fancy", source="store"),),
            class_rules=(ClassRule("web_text", ("fancy",)),),
        )
        compiled = compile_pvnc(pvnc, store_services={"fancy"})
        with pytest.raises(CompilationError, match="factory"):
            build_middleboxes(compiled, UserEnvironment())
        from repro.nfv.middlebox import Middlebox

        boxes = build_middleboxes(
            compiled, UserEnvironment(),
            store_factories={"fancy": lambda: Middlebox("fancy")},
        )
        assert boxes["fancy"].name == "fancy"

    def test_per_packet_delay_counts_longest_pipeline(self):
        compiled = compile_pvnc(default_pvnc())
        # Longest pipeline is video_image (2 modules) + classifier = 3.
        assert compiled.per_packet_delay == pytest.approx(3 * 45e-6)
