"""Every name a package module imports is used in it (no linter ships
with the toolchain, so this stands in for an unused-import check), the
array-only modules import nothing from the container module, every
source file parses as the oldest Python that pyproject.toml allows, and
the commands that need no kd-tree never load scipy.spatial."""

import ast
import os
import subprocess
import sys
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


_LAZY_RUN = """
import sys
from tubekit import cli

d = sys.argv[1]
heavy = ("scipy.spatial", "scipy.sparse", "scipy.linalg")
for args in (["phantom", "--kind", "helix", "--dims", "24,24,24", "--noise-sigma", "0.1",
              "--out-image", d + "/img.tvol", "--out-label", d + "/lab.tvol"],
             ["phantom", "--kind", "gapped_cylinder", "--gap", "6", "--dims", "24,24,24",
              "--out-image", d + "/gap-img.tvol", "--out-label", d + "/gap-lab.tvol"],
             ["vesselness", "--in", d + "/img.tvol", "--out", d + "/pred.tvol"],
             ["skeleton", "--in", d + "/gap-lab.tvol", "--out", d + "/skel.tvol"],
             ["reconnect", "--in", d + "/skel.tvol", "--out", d + "/joined.tvol"]):
    code = cli.main(args)
    print(args[0], code, [m for m in heavy if m in sys.modules])
"""


def test_only_the_kd_tree_commands_load_scipy_spatial(tmp_path):
    # scipy.spatial loads scipy.sparse and scipy.linalg, about 12 MB
    # resident; skeleton and metrics import cKDTree where they query, and
    # the helix phantom measures its distances in numpy
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _LAZY_RUN, str(tmp_path)],
                         env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "phantom 0 []", "phantom 0 []", "vesselness 0 []", "skeleton 0 []",
        "reconnect 0 ['scipy.spatial', 'scipy.sparse', 'scipy.linalg']"]
