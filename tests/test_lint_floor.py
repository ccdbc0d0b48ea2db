"""The stdlib lint floor (``tools/lint_floor.py``) — the always-on gate step."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def floor():
    spec = importlib.util.spec_from_file_location(
        "lint_floor", ROOT / "tools" / "lint_floor.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def codes(floor, source):
    return [(f.code, f.line, f.message) for f in floor.check_source(source)]


class TestUnusedImports:
    def test_flags_unused(self, floor):
        src = "import os\nfrom functools import lru_cache, wraps\nwraps\n"
        assert codes(floor, src) == [
            ("F401", 1, "'os' imported but unused"),
            ("F401", 2, "'functools.lru_cache' imported but unused"),
        ]

    def test_string_annotations_count_as_use(self, floor):
        src = (
            "from __future__ import annotations\n"
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from a import Block, Grid, Plan\n"
            "def f(x: 'Block | None', y: list['Grid']) -> 'Plan':\n"
            "    return x\n"
        )
        assert codes(floor, src) == []

    def test_cast_target_counts_as_use(self, floor):
        src = "from typing import cast\nfrom a import T\ncast('T', 1)\n"
        assert codes(floor, src) == []

    def test_dunder_all_and_reexport_count_as_use(self, floor):
        src = "from a import x\nfrom b import y as y\n__all__ = ['x']\n"
        assert codes(floor, src) == []

    def test_noqa_waives(self, floor):
        src = "import os  # noqa: F401\nimport re  # noqa\nimport sys  # noqa: E501\n"
        assert [c[:2] for c in codes(floor, src)] == [("F401", 3)]

    def test_dotted_import_binds_top_package(self, floor):
        assert codes(floor, "import os.path\nos.path.join('a')\n") == []


class TestUndefinedNames:
    def test_flags_undefined(self, floor):
        src = "def f():\n    return missing + 1\n"
        assert codes(floor, src) == [("F821", 2, "undefined name 'missing'")]

    def test_undefined_in_string_annotation(self, floor):
        src = "def f(x: 'Nowhere') -> None:\n    pass\n"
        assert codes(floor, src) == [("F821", 1, "undefined name 'Nowhere'")]

    def test_bindings_of_every_kind(self, floor):
        src = (
            "import re as regex\n"
            "class C: pass\n"
            "def f(a, *args, b=1, **kw):\n"
            "    global G\n"
            "    G = [i for i in args]\n"
            "    with open(a) as fh:\n"
            "        pass\n"
            "    try:\n"
            "        pass\n"
            "    except OSError as exc:\n"
            "        print(exc)\n"
            "    if (n := len(kw)):\n"
            "        pass\n"
            "    return C, G, fh, n, b, regex, __name__, lambda q: q\n"
        )
        assert codes(floor, src) == []

    def test_star_import_disables_the_check(self, floor):
        assert codes(floor, "from a import *\nanything\n") == []


def test_syntax_error_reported(floor):
    (finding,) = floor.check_source("def f(:\n", "bad.py")
    assert finding.code == "E999" and finding.path == "bad.py"


def test_ruff_scope_is_clean(floor):
    """The gate itself: the whole ruff scope passes the floor."""
    files, findings = floor.check_paths(ROOT / p for p in floor.RUFF_SCOPE)
    assert files > 100
    assert [str(f) for f in findings] == []
