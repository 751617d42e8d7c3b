"""Every name a package module imports is used in it (no linter ships
with the toolchain, so this stands in for an unused-import check), the
array-only modules import nothing from the container module, and every
source file parses as the oldest Python that pyproject.toml allows."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tubekit"


def _unused_imports(tree: ast.Module) -> set:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # names re-exported through __all__
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return imported - used


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == set()


def _volume_imports(tree: ast.Module) -> list:
    """The import statements of ``tree`` that name a ``volume`` module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            dotted = [module] + [f"{module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        else:
            continue
        if any("volume" in name.split(".") for name in dotted):
            found.append(ast.unparse(node))
    return found


@pytest.mark.parametrize("name", ["skeleton.py", "losses.py"])
def test_array_modules_do_not_import_volume(name):
    assert _volume_imports(ast.parse((PACKAGE / name).read_text())) == []


@pytest.mark.parametrize(
    "path", sorted(p for d in (PACKAGE, ROOT / "tests", ROOT / "perfbench")
                   for p in d.rglob("*.py")),
    ids=lambda p: str(p.relative_to(ROOT)))
def test_source_parses_as_python_3_10(path):
    # requires-python is >=3.10; reject syntax newer than that grammar
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
