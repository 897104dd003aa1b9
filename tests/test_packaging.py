"""The package metadata ships the ``salo-repro`` command the README names."""

import importlib
import tomllib
from pathlib import Path

from repro.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_console_script_targets_cli_main():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)
    module, _, attr = project["project"]["scripts"]["salo-repro"].partition(":")
    assert getattr(importlib.import_module(module), attr) is main
    assert project["tool"]["setuptools"]["packages"]["find"]["where"] == ["src"]
    assert "numpy" in project["project"]["dependencies"]
