"""Checks on the package as a whole: its documented API and its source syntax."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "tddnc").glob("*.py"))


def _exports():
    """Every name `tddnc/__init__.py` imports from its modules, and every name of
    its table of exports imported on first access."""
    tree = ast.parse((ROOT / "src" / "tddnc" / "__init__.py").read_text())
    lazy = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["_LAZY_EXPORTS"]]
    assert len(lazy) == 1
    return ([a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
             for a in node.names] + [name for names in lazy[0].values() for name in names])


def test_every_export_resolves():
    # the rlnc and simulator names are imported on first access, and a star
    # import brings in every name
    import tddnc

    names = _exports()
    assert {"simulate", "GaloisField", "Decoder", "optimal_policy"} <= set(names)
    assert all(callable(getattr(tddnc, name)) for name in names)
    assert set(names) <= set(dir(tddnc))
    assert sorted(tddnc.__all__) == sorted(names)
    star = {}
    exec("from tddnc import *", star)
    assert all(star[name] is getattr(tddnc, name) for name in names)
    from tddnc import Decoder, GaloisField, simulate

    assert (Decoder, GaloisField) == (tddnc.rlnc.Decoder, tddnc.rlnc.GaloisField)
    assert simulate is tddnc.simulator.simulate
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        tddnc.nonexistent


def test_readme_names_every_public_export():
    # code fences are dropped first, so a name counts only where the prose
    # or a list puts it in backticks
    text = re.sub(r"^```.*?^```", "", (ROOT / "README.md").read_text(), flags=re.S | re.M)
    named = {w for span in re.findall(r"`([^`]+)`", text) for w in re.findall(r"\w+", span)}
    exports = _exports()
    missing = [name for name in exports if name not in named]
    assert exports and not missing, missing


def test_sources_parse_as_python_3_10():
    """Every module parses with the grammar of Python 3.10, the oldest the
    package declares (`requires-python = ">=3.10"`).

    This catches syntax only, and only as far as `ast`'s `feature_version`
    check goes: a library call that 3.10 lacks still passes.
    """
    assert SOURCES
    for path in SOURCES:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
