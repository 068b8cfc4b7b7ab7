"""A restricted-exec sandbox for untrusted UDF source code.

The paper motivates client-site UDFs partly by the server's inability to
trust user code.  In this reproduction the roles are mirrored: the *client
runtime* accepts UDFs as source text and runs them under a restricted
environment so that a buggy or hostile UDF cannot trivially reach the rest of
the process.

The sandbox works in two layers:

1. **Static screening** — the source is parsed and its AST is walked; any
   node on the deny list (imports, ``exec``/``eval``/``compile`` calls,
   double-underscore attribute access, ``global``/``nonlocal``, ``lambda``
   assignments to dunders, etc.) raises :class:`SandboxViolation` before any
   code runs.
2. **Curated builtins** — the compiled code executes with a small whitelist
   of builtins (arithmetic, containers, ``len``, ``range`` …) and nothing
   else in its globals.

.. warning::
   This is a *prototype* trust boundary, adequate for the reproduction's
   experiments and tests, not a real security sandbox: CPython offers no
   in-process isolation strong enough to contain a determined adversary.
   The limitation is called out in DESIGN.md and README.md.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Optional

from repro.errors import SandboxViolation

#: Builtins considered safe enough for numeric/relational UDF bodies.
_SAFE_BUILTINS: Dict[str, Any] = {
    "abs": abs,
    "all": all,
    "any": any,
    "bool": bool,
    "dict": dict,
    "divmod": divmod,
    "enumerate": enumerate,
    "filter": filter,
    "float": float,
    "frozenset": frozenset,
    "int": int,
    "len": len,
    "list": list,
    "map": map,
    "max": max,
    "min": min,
    "pow": pow,
    "range": range,
    "repr": repr,
    "reversed": reversed,
    "round": round,
    "set": set,
    "sorted": sorted,
    "str": str,
    "sum": sum,
    "tuple": tuple,
    "zip": zip,
    "True": True,
    "False": False,
    "None": None,
    "ValueError": ValueError,
    "TypeError": TypeError,
    "ZeroDivisionError": ZeroDivisionError,
}

#: Names that may never be referenced in sandboxed source.
_FORBIDDEN_NAMES: FrozenSet[str] = frozenset(
    {
        "eval",
        "exec",
        "compile",
        "open",
        "input",
        "__import__",
        "globals",
        "locals",
        "vars",
        "getattr",
        "setattr",
        "delattr",
        "breakpoint",
        "exit",
        "quit",
        "memoryview",
        "object",
        "type",
        "super",
    }
)

#: AST node types that are rejected outright.
_FORBIDDEN_NODES = (
    ast.Import,
    ast.ImportFrom,
    ast.Global,
    ast.Nonlocal,
    ast.With,
    ast.AsyncWith,
    ast.AsyncFunctionDef,
    ast.Await,
    ast.Try,
    ast.Raise,
    ast.Delete,
    ast.ClassDef,
)


@dataclass(frozen=True)
class SandboxPolicy:
    """Tunable limits for sandboxed UDFs."""

    max_source_bytes: int = 64 * 1024
    allow_while_loops: bool = True
    extra_builtins: Dict[str, Any] = field(default_factory=dict)
    extra_forbidden_names: FrozenSet[str] = frozenset()

    def builtins(self) -> Dict[str, Any]:
        merged = dict(_SAFE_BUILTINS)
        merged.update(self.extra_builtins)
        return merged

    def forbidden_names(self) -> FrozenSet[str]:
        return _FORBIDDEN_NAMES | self.extra_forbidden_names


class _Screener(ast.NodeVisitor):
    """AST visitor enforcing the static part of the sandbox policy."""

    def __init__(self, policy: SandboxPolicy) -> None:
        self.policy = policy
        self.forbidden = policy.forbidden_names()

    def generic_visit(self, node: ast.AST) -> None:
        if isinstance(node, _FORBIDDEN_NODES):
            raise SandboxViolation(
                f"{type(node).__name__} statements are not allowed in sandboxed UDFs"
            )
        if isinstance(node, ast.While) and not self.policy.allow_while_loops:
            raise SandboxViolation("while loops are disabled by the sandbox policy")
        super().generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if node.id in self.forbidden:
            raise SandboxViolation(f"reference to forbidden name {node.id!r}")
        if node.id.startswith("__") and node.id.endswith("__"):
            raise SandboxViolation(f"reference to dunder name {node.id!r}")
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr.startswith("__"):
            raise SandboxViolation(f"access to dunder attribute {node.attr!r}")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id in self.forbidden:
            raise SandboxViolation(f"call to forbidden function {node.func.id!r}")
        self.generic_visit(node)


class Sandbox:
    """Compiles untrusted UDF source into restricted callables."""

    def __init__(self, policy: Optional[SandboxPolicy] = None) -> None:
        self.policy = policy or SandboxPolicy()

    # -- public API --------------------------------------------------------------------

    def screen(self, source: str) -> ast.Module:
        """Parse and statically screen ``source``; returns the AST on success."""
        if len(source.encode("utf-8")) > self.policy.max_source_bytes:
            raise SandboxViolation(
                f"UDF source exceeds {self.policy.max_source_bytes} bytes"
            )
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            raise SandboxViolation(f"UDF source does not parse: {exc}") from exc
        _Screener(self.policy).visit(tree)
        return tree

    def compile_function(self, source: str, entry_point: str) -> Callable[..., Any]:
        """Compile ``source`` and return the function named ``entry_point``.

        The source must define ``entry_point`` at module level with ``def``.
        """
        tree = self.screen(source)
        defines_entry = any(
            isinstance(node, ast.FunctionDef) and node.name == entry_point
            for node in tree.body
        )
        if not defines_entry:
            raise SandboxViolation(
                f"UDF source does not define a function named {entry_point!r}"
            )
        code = compile(tree, filename=f"<udf:{entry_point}>", mode="exec")
        namespace: Dict[str, Any] = {"__builtins__": self.policy.builtins()}
        exec(code, namespace)  # noqa: S102 - the point of the sandbox
        function = namespace.get(entry_point)
        if not callable(function):
            raise SandboxViolation(f"{entry_point!r} is not callable after compilation")
        return function
