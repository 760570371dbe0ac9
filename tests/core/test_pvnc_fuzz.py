"""Differential and fuzz tests for the PVNC language's front end.

The load-bearing property: :func:`parse_pvnc` is observably the parser
it replaced, :func:`reference_parse_pvnc` below (the ``shlex``-based
front end, kept verbatim), except that every input the reference
failed on, or whose ``budget`` or ``max-latency`` gives a NaN, now
fails with a typed :class:`ConfigurationError`.  Its tokenizer, :func:`split_words`, gives
``shlex.split``'s words for every string.
"""

from __future__ import annotations

import math
import re
import shlex

from hypothesis import example, given, settings, strategies as st

from repro.core.pvnc.dsl import parse_pvnc, render_pvnc, split_words
from repro.core.pvnc.model import (
    ClassRule,
    Constraints,
    ModuleSpec,
    Pvnc,
    SOURCE_BUILTIN,
    SOURCE_STORE,
)
from repro.errors import ConfigurationError
from repro.middleboxes.classifier import ALL_CLASSES


# -- the reference: the shlex-based parser, verbatim ------------------------

_HEADER_RE = re.compile(r'^pvnc\s+"([^"]+)"\s+for\s+(\S+)$')


class _ParserState:
    def __init__(self) -> None:
        self.name = ""
        self.user = ""
        self.modules: list[ModuleSpec] = []
        self.rules: list[ClassRule] = []
        self.required: list[str] = []
        self.preferred: list[str] = []
        self.max_price = float("inf")
        self.max_added_latency = 0.010


def reference_parse_pvnc(text: str) -> Pvnc:
    """Parse DSL ``text`` into a :class:`Pvnc`.

    Raises :class:`ConfigurationError` with a line number on any
    syntax or semantic problem.
    """
    state = _ParserState()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            _parse_line(line, state)
        except ConfigurationError as exc:
            raise ConfigurationError(f"line {lineno}: {exc}") from exc

    if not state.name:
        raise ConfigurationError('missing \'pvnc "<name>" for <user>\' header')
    _check_references(state)
    return Pvnc(
        user=state.user,
        name=state.name,
        modules=tuple(state.modules),
        class_rules=tuple(state.rules),
        constraints=Constraints(
            required_services=tuple(state.required),
            preferred_services=tuple(state.preferred),
            max_price=state.max_price,
            max_added_latency=state.max_added_latency,
        ),
    )


def _parse_line(line: str, state: _ParserState) -> None:
    header = _HEADER_RE.match(line)
    if header:
        state.name, state.user = header.groups()
        return
    keyword = line.split(None, 1)[0]
    if keyword == "module":
        state.modules.append(_parse_module(line))
    elif keyword in ("class", "default:") or line.startswith("default"):
        state.rules.append(_parse_class(line))
    elif keyword == "require":
        state.required.extend(line.split()[1:])
    elif keyword == "prefer":
        state.preferred.extend(line.split()[1:])
    elif keyword == "budget":
        state.max_price = _parse_float(line.split()[1], "budget")
    elif keyword == "max-latency":
        parts = line.split()
        if len(parts) < 3 or parts[2] != "ms":
            raise ConfigurationError("expected 'max-latency <n> ms'")
        state.max_added_latency = _parse_float(parts[1], "max-latency") / 1000.0
    else:
        raise ConfigurationError(f"unknown directive {keyword!r}")


def _parse_float(token: str, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ConfigurationError(f"bad {what} value {token!r}") from None
    if value < 0:
        raise ConfigurationError(f"{what} must be >= 0")
    return value


def _parse_module(line: str) -> ModuleSpec:
    tokens = shlex.split(line)
    if len(tokens) < 2:
        raise ConfigurationError("module needs a service name")
    service = tokens[1]
    params: dict[str, str] = {}
    source = SOURCE_BUILTIN
    reuse = False
    for token in tokens[2:]:
        if "=" not in token:
            raise ConfigurationError(f"module option {token!r} needs key=value")
        key, _, value = token.partition("=")
        if key == "from":
            if value != "store":
                raise ConfigurationError(f"unknown module source {value!r}")
            source = SOURCE_STORE
        elif key == "reuse":
            if value not in ("yes", "no"):
                raise ConfigurationError("reuse must be yes|no")
            reuse = value == "yes"
        else:
            params[key] = value
    return ModuleSpec.make(service, source=source,
                           allow_physical_reuse=reuse, **params)


def _parse_class(line: str) -> ClassRule:
    head, _, rest = line.partition(":")
    if not rest.strip():
        raise ConfigurationError("class rule needs a pipeline after ':'")
    head_tokens = head.split()
    if head_tokens[0] == "default":
        traffic_class = "default"
    else:
        if len(head_tokens) != 2:
            raise ConfigurationError("expected 'class <name>: ...'")
        traffic_class = head_tokens[1]
    stages = [stage.strip() for stage in rest.split("->")]
    if any(not stage for stage in stages):
        raise ConfigurationError("empty pipeline stage (stray '->')")
    terminal = stages[-1]
    pipeline = tuple(stages[:-1])
    return ClassRule(traffic_class=traffic_class, pipeline=pipeline,
                     terminal=terminal)


def _check_references(state: _ParserState) -> None:
    declared = {spec.service for spec in state.modules}
    for rule in state.rules:
        for service in rule.pipeline:
            if service not in declared:
                raise ConfigurationError(
                    f"class {rule.traffic_class!r} uses undeclared module "
                    f"{service!r} (add a 'module {service}' line)"
                )
    for service in state.required + state.preferred:
        if service not in declared:
            raise ConfigurationError(
                f"constraint references undeclared module {service!r}"
            )



# -- the tokenizer equals shlex.split ---------------------------------------

#: Quotes, escapes, every separator, and the whitespace that is not one.
SHELL_ALPHABET = "ab= '\"\\\t\r\n\xa0\x0b#"
#: Shell text: single characters, mixed with quoted runs that close.
SHELL_TEXT = st.lists(st.one_of(
    st.sampled_from(SHELL_ALPHABET),
    st.text(alphabet=SHELL_ALPHABET, max_size=4).map(lambda t: f'"{t}"'),
    st.text(alphabet=SHELL_ALPHABET, max_size=4).map(lambda t: f"'{t}'"),
), max_size=12).map("".join)


def shlex_words(text: str) -> list[str] | None:
    """``shlex.split``'s words, or None where it rejects ``text``."""
    try:
        return shlex.split(text)
    except ValueError:
        return None


@settings(max_examples=1000, deadline=None)
@given(SHELL_TEXT)
@example('a"b\\"c\\\\"d')       # a backslash escapes " and \ in "..."
@example('"a\\x"\\y')           # ... nothing else there; anything outside
@example("a\xa0b\x0bc\td")      # \xa0 and \x0b do not separate
@example("'' a''b")             # '' is a word of its own
@example("'a\\'")               # single quotes are literal
@example('a "b')                # unclosed quote
@example("a\\")                 # trailing backslash
def test_split_words_equals_shlex(text):
    expected = shlex_words(text)
    if expected is None:
        try:
            split_words(text)
        except ConfigurationError:
            return
        raise AssertionError(f"shlex rejects {text!r}, split_words accepts")
    assert split_words(text) == expected


# -- parse_pvnc against the reference ---------------------------------------

SERVICES = ("t", "tls_validator", "transcoder")
#: Well-formed values, then malformed ones; :func:`pick` mostly takes
#: the first kind so that about one text in five parses.
HEADERS = (('pvnc "x" for u', 'pvnc "two words" for bob'),
           ('pvnc "" for u', "pvnc x for u"))
OPTIONS = (("mode=block", "q='a b'", 'q="a \\" b"', "k=v\\ w", "k=''",
            "from=store", "reuse=yes", "reuse=no"),
           ('q="a#b"', "from=x", "reuse=maybe", "service=s", "source=store",
            "allow_physical_reuse=1", "cls=c", "=v", "badoption"))
NUMBERS = (("5", "0", "2.5", "1e3", "inf", "1_0"),
           ("-3", "nan", "-nan", "0x1", ""))
CLASSES = (("https", "web_text", "dns", "video_image", "default"),
           ("bogus",))
TERMINALS = (("forward", "drop", "tunnel:cloud"), ("teleport", ""))
DIRECTIVES = ("module", "class", "default:", "default", "require", "prefer",
              "budget", "max-latency", "bogus")
#: Whitespace within a line: ``str.split`` splits on ``\xa0``, shlex not.
SEPARATORS = (" ", "  ", "\t", "\xa0")
NOISE = st.text(alphabet=SHELL_ALPHABET, max_size=6)


def pick(draw, choices: tuple[tuple[str, ...], tuple[str, ...]]) -> str:
    good, bad = choices
    return draw(st.sampled_from(good * 4 + bad))


def joined(draw, words: list[str]) -> str:
    line = words[0]
    for word in words[1:]:
        line += draw(st.sampled_from(SEPARATORS)) + word
    return line


@st.composite
def directive_lines(draw) -> str:
    """One directive built from its grammar, now and then malformed."""
    kind = draw(st.sampled_from(("module", "class", "require", "budget",
                                 "max-latency")))
    if kind == "module":
        options = draw(st.lists(
            st.one_of(st.just(None), st.just(None), NOISE), max_size=3))
        return joined(draw, [
            "module", draw(st.sampled_from(SERVICES)),
            *(pick(draw, OPTIONS) if option is None else "k=" + option
              for option in options)])
    if kind == "class":
        stages = draw(st.lists(st.sampled_from(SERVICES), max_size=2))
        stages.append(pick(draw, TERMINALS))
        traffic_class = pick(draw, CLASSES)
        head = ("default" if traffic_class == "default"
                else f"class {traffic_class}")
        return f"{head}: " + " -> ".join(stages)
    if kind == "require":
        return joined(draw, [draw(st.sampled_from(("require", "prefer"))),
                             *draw(st.lists(st.sampled_from(SERVICES),
                                            max_size=2))])
    number = pick(draw, NUMBERS)
    return f"budget {number}" if kind == "budget" else (
        f"max-latency {number} ms")


@st.composite
def noise_lines(draw) -> str:
    """A directive, then known words or shell-alphabet noise."""
    known = (*SERVICES, *sum(OPTIONS + NUMBERS + TERMINALS, ()), "->",
             "https:", "ms", "#")
    words = draw(st.lists(st.one_of(st.sampled_from(known), NOISE),
                          max_size=5))
    return joined(draw, [draw(st.sampled_from(DIRECTIVES)), *words])


@st.composite
def dsl_texts(draw) -> str:
    """A PVNC's text: header, module declarations, directives, noise."""
    lines = draw(st.lists(
        st.one_of(*[directive_lines()] * 9, noise_lines()), max_size=5))
    if draw(st.sampled_from((True, True, True, False))):
        lines[:0] = [f"module {service}" for service in SERVICES]
    if draw(st.sampled_from((True, True, True, False))):
        lines.insert(0, pick(draw, HEADERS))
    return "\n".join(lines)


def has_nan(pvnc: Pvnc) -> bool:
    return (math.isnan(pvnc.constraints.max_price)
            or math.isnan(pvnc.constraints.max_added_latency))


def has_nan_number(text: str) -> bool:
    """Whether a ``budget`` or ``max-latency`` line of ``text`` gives a
    number that parses as NaN.  The spec rejects such a text whatever
    its other lines hold, so this is decided from the input: a later
    line may overwrite the NaN in the reference's result."""
    for raw in text.splitlines():
        words = raw.split("#", 1)[0].split()
        if len(words) >= 2 and words[0] in ("budget", "max-latency"):
            try:
                if math.isnan(float(words[1])):
                    return True
            except ValueError:
                pass
    return False


@settings(max_examples=1000, deadline=None)
@given(dsl_texts())
@example('pvnc "x" for u\nmodule t\nmodule tls_validator\n'
         'module transcoder\nbudget nan\nbudget 5')
def test_parse_pvnc_equals_reference(text):
    try:
        expected = reference_parse_pvnc(text)
    except (ConfigurationError, IndexError, TypeError, ValueError):
        expected = None
    if expected is not None and not has_nan_number(text):
        assert parse_pvnc(text) == expected
        return
    try:
        parse_pvnc(text)
    except ConfigurationError:
        return
    raise AssertionError(f"reference rejects {text!r}, parse_pvnc accepts")


@settings(max_examples=500, deadline=None)
@given(st.one_of(dsl_texts(), st.text(max_size=60)))
def test_parse_pvnc_returns_pvnc_or_configuration_error(text):
    try:
        pvnc = parse_pvnc(text)
    except ConfigurationError as exc:
        assert str(exc)
    else:
        assert isinstance(pvnc, Pvnc)
        assert not has_nan(pvnc)


# -- render then parse is the identity --------------------------------------

NAMES = st.from_regex(r"[a-z][a-z0-9_-]{0,7}", fullmatch=True)
VALUES = st.from_regex(r"[a-z0-9_.:=-]{0,6}", fullmatch=True)
#: Latencies as the DSL writes them: any decimal number of
#: milliseconds, over 1000, up to 17 significant digits.
LATENCIES = st.builds(
    lambda digits, exponent: float(f"{digits}e{exponent}") / 1000.0,
    st.integers(0, 10**17 - 1), st.integers(-20, 3))
PRICES = st.floats(min_value=0.0, allow_nan=False)


@st.composite
def valid_pvncs(draw) -> Pvnc:
    services = draw(st.lists(NAMES, unique=True, max_size=5))
    modules = tuple(
        ModuleSpec.make(
            service,
            source=draw(st.sampled_from((SOURCE_BUILTIN, SOURCE_STORE))),
            allow_physical_reuse=draw(st.booleans()),
            **draw(st.dictionaries(
                NAMES.filter(lambda key: key not in (
                    "from", "reuse", "cls", "service", "source",
                    "allow_physical_reuse")),
                VALUES, max_size=3)),
        )
        for service in services
    )
    classes = draw(st.lists(st.sampled_from((*ALL_CLASSES, "default")),
                            unique=True, max_size=4))
    terminals = st.one_of(st.sampled_from(("forward", "drop")),
                          NAMES.map(lambda name: f"tunnel:{name}"))
    rules = tuple(
        ClassRule(
            traffic_class,
            tuple(draw(st.lists(st.sampled_from(services), max_size=3)))
            if services else (),
            terminal=draw(terminals),
        )
        for traffic_class in classes
    )
    required = draw(st.lists(st.sampled_from(services), max_size=2)
                    if services else st.just([]))
    preferred = draw(st.lists(st.sampled_from(services), max_size=2)
                     if services else st.just([]))
    return Pvnc(
        user=draw(NAMES),
        name=draw(NAMES),
        modules=modules,
        class_rules=rules,
        constraints=Constraints(
            required_services=tuple(required),
            preferred_services=tuple(preferred),
            max_price=draw(PRICES),
            max_added_latency=draw(LATENCIES),
        ),
    )


@settings(max_examples=300, deadline=None)
@given(valid_pvncs())
def test_render_then_parse_is_identity(pvnc):
    again = parse_pvnc(render_pvnc(pvnc))
    assert again == pvnc
    assert again.digest() == pvnc.digest()
    assert again.policy_digest == pvnc.policy_digest
