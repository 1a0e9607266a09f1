"""Static checks on imports, by the standard library's ast.

Every name that a module in src/, tests/ or scripts/ imports is read
somewhere in that module (the package's __init__.py files re-export, so
they are exempt), and no module of the package imports a private
(underscore) name from a sibling module: a helper that two modules share
belongs to one of them, public, or to the module that owns the job.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "goldbachkit"


def _modules(*folders):
    for folder in folders:
        yield from sorted((ROOT / folder).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def private_sibling_imports(source: str) -> list[str]:
    """Underscore names imported from another module of the package."""
    return sorted(
        f"{node.module or '.'}.{alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("goldbachkit"))
        for alias in node.names
        if alias.name.startswith("_")
    )


def test_the_checks_see_what_they_look_for():
    assert unused_imports("import math\nimport os.path\nfrom a import b as c\nos.sep\n") \
        == ["c", "math"]
    assert unused_imports("from __future__ import annotations\nimport numpy as np\nnp.pi\n") == []
    assert unused_imports("import math\nmath = 1\n") == ["math"]  # rebound, never read
    assert private_sibling_imports(
        "from .goldbach import _convolution_powers, gk_fft\n"
        "from goldbachkit.zeros import _zero_sums\nfrom numpy import _core\n"
    ) == ["goldbach._convolution_powers", "goldbachkit.zeros._zero_sums"]


def test_every_import_is_read():
    unused = {
        str(path.relative_to(ROOT)): names
        for path in _modules("src", "tests", "scripts")
        if path.name != "__init__.py"
        and (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


def test_no_module_imports_a_private_name_from_a_sibling():
    private = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := private_sibling_imports(path.read_text(encoding="utf-8")))
    }
    assert private == {}
