r"""The user-readable PVNC language.

§3.1: PVNCs are "created well before connecting to an access network,
using high-level tools that compile user-readable configurations into
low-level SDN code".  This is the user-readable half; the low-level
half is :mod:`repro.core.pvnc.compiler`.

Grammar (line-oriented; ``#`` comments)::

    pvnc "<name>" for <user>
    module <service> [key=value ...] [from=store] [reuse=yes|no]
    class <traffic_class>: <svc> -> <svc> -> ... -> <terminal>
    default: <terminal> | <svc> -> ... -> <terminal>
    require <service> [<service> ...]
    prefer <service> [<service> ...]
    budget <max_price>
    max-latency <milliseconds> ms

Terminals: ``forward``, ``drop``, ``tunnel:<endpoint>``.

Tokenizing.  ``#`` cuts a line before anything else reads it, even
inside quotes.  A ``module`` line splits into words the way POSIX
``sh`` does (:func:`split_words`): only space, tab, CR and LF separate
words, so ``\xa0`` or ``\x0b`` stays inside one; ``'...'`` is literal;
inside ``"..."`` a backslash escapes only ``"`` and ``\``; outside
quotes it escapes any character; adjacent pieces join into one word
and ``''`` is an empty word.  An unclosed quote or a trailing backslash
is an error.  Every other directive splits on any whitespace and has
no quoting.  ``module`` options named ``cls``, ``service``, ``source``
or ``allow_physical_reuse`` are reserved; ``budget`` and
``max-latency`` take a non-negative number, ``inf`` but not ``nan``.

Example::

    pvnc "secure-roaming" for alice
    module tls_validator mode=block
    module transcoder quality=medium
    module tcp_proxy reuse=yes
    class https: tls_validator -> forward
    class video_image: transcoder -> tcp_proxy -> forward
    default: forward
    require tls_validator
    prefer transcoder
    budget 5.0
"""

from __future__ import annotations

import math
import re

from repro.errors import ConfigurationError
from repro.core.pvnc.model import (
    ClassRule,
    Constraints,
    ModuleSpec,
    Pvnc,
    SOURCE_BUILTIN,
    SOURCE_STORE,
)

_HEADER_RE = re.compile(r'^pvnc\s+"([^"]+)"\s+for\s+(\S+)$')

#: A word with no quote or backslash, between separators.
_BARE_WORD_RE = re.compile(r"[^ \t\r\n]+")
#: One piece of a quoted line; ``lastindex`` names which kind.
_PIECE_RE = re.compile(r"""
      ([ \t\r\n]+)          # 1: separator
    | ([^ \t\r\n'"\\]+)     # 2: bare run
    | '([^']*)'             # 3: single-quoted, literal
    | "((?:[^"\\]|\\.)*)"   # 4: double-quoted
    | \\(.)                 # 5: backslash-escaped character
""", re.VERBOSE | re.DOTALL)
#: The escapes a double-quoted piece resolves.
_DQ_ESCAPE_RE = re.compile(r'\\([\\"])')
_SEPARATOR, _DOUBLE_QUOTED = 1, 4

#: ``ModuleSpec.make``'s own parameter names, so never module options.
_RESERVED_OPTIONS = frozenset(("cls", "service", "source",
                               "allow_physical_reuse"))


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


def parse_pvnc(text: str) -> Pvnc:
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
        parts = line.split()
        if len(parts) < 2:
            raise ConfigurationError("expected 'budget <max_price>'")
        state.max_price = _parse_float(parts[1], "budget")
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
    if math.isnan(value):
        raise ConfigurationError(f"bad {what} value {token!r}")
    if value < 0:
        raise ConfigurationError(f"{what} must be >= 0")
    return value


def split_words(line: str) -> list[str]:
    """``line``'s words as POSIX ``sh`` splits and unquotes them (the
    rules in the module docstring), one regex match per piece."""
    if "'" not in line and '"' not in line and "\\" not in line:
        return _BARE_WORD_RE.findall(line)
    words: list[str] = []
    word = None
    pos, end = 0, len(line)
    while pos < end:
        piece = _PIECE_RE.match(line, pos)
        if piece is None:
            if line[pos] == "\\":
                raise ConfigurationError("trailing backslash")
            raise ConfigurationError(f"unclosed {line[pos]} quote")
        pos = piece.end()
        kind = piece.lastindex
        if kind == _SEPARATOR:
            if word is not None:
                words.append(word)
                word = None
            continue
        text = piece.group(kind)
        if kind == _DOUBLE_QUOTED:
            text = _DQ_ESCAPE_RE.sub(r"\1", text)
        word = text if word is None else word + text
    if word is not None:
        words.append(word)
    return words


def _parse_module(line: str) -> ModuleSpec:
    tokens = split_words(line)
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
        if key in _RESERVED_OPTIONS:
            raise ConfigurationError(f"module option {key!r} is reserved")
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


def render_pvnc(pvnc: Pvnc) -> str:
    """Render a :class:`Pvnc` back to DSL text (round-trippable)."""
    lines = [f'pvnc "{pvnc.name}" for {pvnc.user}']
    for spec in pvnc.modules:
        parts = [f"module {spec.service}"]
        parts.extend(f"{k}={v}" for k, v in spec.params)
        if spec.source == SOURCE_STORE:
            parts.append("from=store")
        if spec.allow_physical_reuse:
            parts.append("reuse=yes")
        lines.append(" ".join(parts))
    for rule in pvnc.class_rules:
        chain = " -> ".join([*rule.pipeline, rule.terminal])
        if rule.traffic_class == "default":
            lines.append(f"default: {chain}")
        else:
            lines.append(f"class {rule.traffic_class}: {chain}")
    if pvnc.constraints.required_services:
        lines.append("require " + " ".join(pvnc.constraints.required_services))
    if pvnc.constraints.preferred_services:
        lines.append("prefer " + " ".join(pvnc.constraints.preferred_services))
    if pvnc.constraints.max_price != float("inf"):
        lines.append(f"budget {pvnc.constraints.max_price}")
    # repr keeps every digit, so a parsed latency renders to text that
    # parses back to the same float.
    lines.append(
        f"max-latency {pvnc.constraints.max_added_latency * 1000!r} ms"
    )
    return "\n".join(lines) + "\n"
