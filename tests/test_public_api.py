"""The package exports exactly the names README's "Public API" lists."""

import inspect
import re
from pathlib import Path

import uavsched

README = Path(__file__).resolve().parents[1] / "README.md"


def documented_names() -> set[str]:
    """Backticked names in the bullets of README's "## Public API"."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    bullets = section[section.index("\n- "):]
    return set(re.findall(r"`([A-Za-z_]\w*)`", bullets))


def exported_names() -> set[str]:
    """Public attributes of the package, its submodules left out."""
    return {name for name, value in vars(uavsched).items()
            if not name.startswith("_") and not inspect.ismodule(value)}


def test_exports_match_readme():
    assert exported_names() == documented_names()


def test_section_is_found():
    names = documented_names()
    assert {"run_pso", "fitness", "build_schedule", "ProblemInstance"} <= names
    assert "uavsched" not in names
