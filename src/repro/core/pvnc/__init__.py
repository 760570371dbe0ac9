"""PVNC: model, user-readable DSL, validation, and compiler."""

from repro.core.pvnc.compiler import UserEnvironment, compile_pvnc
from repro.core.pvnc.dsl import parse_pvnc, render_pvnc

__all__ = [
    "UserEnvironment",
    "compile_pvnc",
    "parse_pvnc",
    "render_pvnc",
]
