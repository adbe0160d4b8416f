"""Documentation contract: public API is documented and examples run.

Three guarantees:

1. every public module, class and function in the package carries a
   docstring (deliverable (e): "doc comments on every public item");
2. every ``>>>`` example embedded in a docstring actually executes and
   produces the shown output (doctest);
3. every script in ``examples/`` is documented and at least compiles,
   and the README actually covers the shipped CLI surface.
"""

from __future__ import annotations

import doctest
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent

DOCTEST_MODULES = [
    "repro._bitops",
    "repro.fixedpoint",
    "repro.emt.dream",
    "repro.emt.secded",
    "repro.emt.dream_secded",
    "repro.emt.hybrid",
    "repro.mem.sram",
    "repro.mem.fabric",
    "repro.energy.sram_model",
    "repro.energy.accounting",
    "repro.energy.battery",
    "repro.apps.dwt",
    "repro.runtime.simulator",
    "repro.cache",
    "repro.cohort.population",
    "repro.cohort.fleet",
    "repro.api.session",
    "repro.obs.core",
]


def all_public_modules():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        leaf = info.name.rsplit(".", 1)[-1]
        if not leaf.startswith("_"):
            names.append(info.name)
    return names


@pytest.mark.parametrize("module_name", all_public_modules())
def test_module_documented(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


@pytest.mark.parametrize("module_name", all_public_modules())
def test_public_items_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name in getattr(module, "__all__", []):
        item = getattr(module, name)
        if inspect.isclass(item) or inspect.isfunction(item):
            if item.__module__ != module_name:
                continue  # re-export; documented at its home module
            if not inspect.getdoc(item):
                undocumented.append(name)
            elif inspect.isclass(item):
                for method_name, method in vars(item).items():
                    if method_name.startswith("_"):
                        continue
                    if inspect.isfunction(method) and not inspect.getdoc(method):
                        undocumented.append(f"{name}.{method_name}")
    assert not undocumented, f"{module_name}: undocumented {undocumented}"


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_doctests_execute(module_name):
    module = importlib.import_module(module_name)
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, f"{result.failed} doctest failures"
    assert result.attempted > 0 or module_name == "repro.fixedpoint"


def all_example_scripts():
    return sorted((REPO_ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize(
    "script", all_example_scripts(), ids=lambda path: path.name
)
def test_example_documented_and_compiles(script):
    source = script.read_text(encoding="utf-8")
    code = compile(source, str(script), "exec")
    assert code.co_consts and isinstance(code.co_consts[0], str), (
        f"{script.name} lacks a module docstring"
    )


def test_shipped_walkthroughs_exist():
    names = {path.name for path in all_example_scripts()}
    assert "adaptive_mission.py" in names
    assert "cohort_fleet.py" in names


class TestReadmeCoverage:
    """The README documents what actually ships."""

    @pytest.fixture(scope="class")
    def readme(self):
        return (REPO_ROOT / "README.md").read_text(encoding="utf-8")

    def test_covers_every_cli_subcommand(self, readme):
        from repro.cli import build_parser

        parser = build_parser()
        subparsers = next(
            action
            for action in parser._actions
            if hasattr(action, "choices") and action.choices
        )
        for command in subparsers.choices:
            assert command in readme, (
                f"README does not mention the {command!r} subcommand"
            )
        # The `repro.cli` API row lists exactly the parser's verbs.
        row = next(
            line for line in readme.splitlines()
            if line.startswith("| `repro.cli` |")
        )
        verbs = re.search(r"python -m repro <([^>]*)>", row).group(1)
        assert verbs.split("|") == list(subparsers.choices)

    def test_cohort_walkthrough_present(self, readme):
        assert "repro run examples/experiments/cohort_pilot.toml" in readme
        assert "survival_curve" in readme
        assert "population_frontier" in readme
        assert "examples/cohort_fleet.py" in readme
        assert "bench_cohort.py" in readme
