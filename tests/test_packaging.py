"""Every console script declared in pyproject.toml must resolve to a
callable, or the installed command fails on import."""

import importlib
import pathlib

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from 3.11 on

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_scripts_resolve():
    meta = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in meta.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        fn = importlib.import_module(module)
        for part in attr.split("."):
            fn = getattr(fn, part)
        assert callable(fn), f"{name} = {target!r} is not callable"
