#!/usr/bin/env python
"""Stdlib-only lint floor for the ruff scope.

The ``ruff`` and ``mypy`` gate steps need tools the runtime image may not
carry; this floor needs nothing but the interpreter, so some lint always
runs.  Over every ``*.py`` file under the given paths (default: the ruff
scope, ``src tests benchmarks examples``) it checks:

* **E999** — the file byte-compiles (``compile()``, the ``py_compile``
  check without writing ``.pyc`` files);
* **F401** — every name an import binds is read somewhere in the module.
  Names listed in ``__all__``, names read inside string annotations
  (``"BlockWorkload | None"``) or ``cast("T", ...)`` targets, explicit
  re-exports (``import x as x``) and ``__future__`` imports count as used;
  a ``# noqa`` comment on the import line (bare or naming F401) waives it;
* **F821** — every name the module reads (string annotations included)
  is bound by some statement of the module or is a builtin.  A file with
  a star import is skipped for this check.

Both name checks are module-wide rather than scope-aware, so the floor
only errs towards silence: it can miss an import shadowed in one scope,
but whatever it reports is a real finding.

Usage::

    python tools/lint_floor.py [PATH ...]

Prints one ``path:line:col: CODE message`` line per finding and exits 1
when there is any.
"""

from __future__ import annotations

import ast
import builtins
import re
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RUFF_SCOPE = ("src", "tests", "benchmarks", "examples")

#: Names every module namespace provides besides the builtins.
MODULE_NAMES = frozenset({
    "__name__", "__file__", "__doc__", "__spec__", "__loader__",
    "__package__", "__path__", "__builtins__", "__annotations__",
    "__dict__", "__module__", "__qualname__", "__class__",
})
BUILTIN_NAMES = frozenset(dir(builtins)) | MODULE_NAMES

_NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)


@dataclass(frozen=True)
class Finding:
    path: str
    line: int
    col: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def _string_names(node: ast.AST) -> Iterator[ast.Name]:
    """Names read inside the string constants of an annotation-like node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                expr = ast.parse(sub.value.strip(), mode="eval")
            except SyntaxError:
                continue
            for name in ast.walk(expr):
                if isinstance(name, ast.Name):
                    # Report at the string's own position.
                    yield ast.Name(
                        id=name.id, ctx=ast.Load(),
                        lineno=sub.lineno, col_offset=sub.col_offset,
                    )
            yield from _string_names(expr)


def _annotation_nodes(tree: ast.AST) -> Iterator[ast.AST]:
    """Every annotation (and ``cast`` type argument) in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation
        elif (
            isinstance(node, ast.Call)
            and node.args
            and (
                (isinstance(node.func, ast.Name) and node.func.id == "cast")
                or (isinstance(node.func, ast.Attribute) and node.func.attr == "cast")
            )
        ):
            yield node.args[0]


def _dunder_all(tree: ast.Module) -> set[str]:
    out: set[str] = set()
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets, value = [node.target], node.value
        if value is None or not any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in targets
        ):
            continue
        if isinstance(value, (ast.List, ast.Tuple)):
            out.update(
                e.value for e in value.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            )
    return out


def _bound_names(tree: ast.AST) -> set[str]:
    """Every name some statement of the module binds, in any scope."""
    bound: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            bound.update(node.names)
        elif isinstance(node, (ast.MatchAs, ast.MatchStar)) and node.name:
            bound.add(node.name)
        elif isinstance(node, ast.MatchMapping) and node.rest:
            bound.add(node.rest)
    return bound


def _waived(line: str, code: str) -> bool:
    match = _NOQA.search(line)
    if match is None:
        return False
    codes = match.group("codes")
    return codes is None or code in {c.strip().upper() for c in codes.split(",")}


def check_source(source: str, path: str = "<string>") -> list[Finding]:
    """Lint one module's source text."""
    try:
        tree = compile(source, path, "exec", ast.PyCF_ONLY_AST, dont_inherit=True)
        compile(tree, path, "exec", dont_inherit=True)
    except SyntaxError as exc:
        return [Finding(path, exc.lineno or 0, exc.offset or 0, "E999",
                        f"SyntaxError: {exc.msg}")]
    assert isinstance(tree, ast.Module)
    lines = source.splitlines()

    loads = [
        n for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, (ast.Load, ast.Del))
    ]
    for annotation in _annotation_nodes(tree):
        loads.extend(_string_names(annotation))
    used = {n.id for n in loads} | _dunder_all(tree)

    findings: list[Finding] = []
    star_import = False
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        line = lines[node.lineno - 1] if node.lineno <= len(lines) else ""
        for alias in node.names:
            if alias.name == "*":
                star_import = True
                continue
            name = alias.asname or alias.name.split(".")[0]
            if alias.asname is not None and alias.asname == alias.name:
                continue  # explicit re-export
            if name in used or _waived(line, "F401"):
                continue
            shown = alias.name if alias.asname is None else f"{alias.name} as {alias.asname}"
            if isinstance(node, ast.ImportFrom):
                shown = f"{'.' * node.level}{node.module or ''}.{shown}"
            findings.append(Finding(
                path, node.lineno, node.col_offset + 1, "F401",
                f"'{shown}' imported but unused",
            ))

    if not star_import:
        known = _bound_names(tree) | BUILTIN_NAMES
        reported: set[tuple[int, str]] = set()
        for name in loads:
            if name.id in known or (name.lineno, name.id) in reported:
                continue
            line = lines[name.lineno - 1] if name.lineno <= len(lines) else ""
            if _waived(line, "F821"):
                continue
            reported.add((name.lineno, name.id))
            findings.append(Finding(
                path, name.lineno, name.col_offset + 1, "F821",
                f"undefined name '{name.id}'",
            ))
    return sorted(findings, key=lambda f: (f.line, f.col, f.code))


def iter_files(paths: Iterable[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(
                p for p in path.rglob("*.py") if "__pycache__" not in p.parts
            )
        elif path.suffix == ".py":
            yield path


def check_paths(paths: Iterable[Path]) -> tuple[int, list[Finding]]:
    """``(files checked, findings)`` over every Python file under ``paths``."""
    files = 0
    findings: list[Finding] = []
    for file in iter_files(paths):
        files += 1
        try:
            shown = str(file.relative_to(REPO))
        except ValueError:
            shown = str(file)
        findings.extend(check_source(file.read_text(encoding="utf-8"), shown))
    return files, findings


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    paths = [Path(a) for a in args] or [REPO / p for p in RUFF_SCOPE]
    files, findings = check_paths(paths)
    for finding in findings:
        print(finding)
    print(f"lint-floor: {files} file(s), {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
