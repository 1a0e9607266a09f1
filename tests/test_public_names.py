"""Every public name of the package has a reader or a stated role, by ast.

A public name is a module-level function, class or constant of
src/goldbachkit, or a field, method or property of one of its classes,
whose name has no leading underscore.  It has a reader when a module of
src/ (outside the name's own definition), scripts/ or perfbench/ loads it.
A module-level name is loaded bare or as an attribute
(``omega.chain_check``), a class member only as an attribute of any object
(``report.max_g``).  A field that is only written, as a keyword of its
constructor, has no reader.  Reads match by name, not by type, so a read
of another class's member of the same name counts (``lemma.ratio`` would
keep a ``ratio`` property of any class): the check can miss an unread
name, but never flags a read one.  A name that nothing reads stays only
with an entry in ROLES that names its role.
"""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "goldbachkit"
READERS = ("scripts", "perfbench")  # beside the package itself

# qualified name -> why it stays without a reader
ROLES = {
    "circle.s0_sum": "oracle of the grid route's prefix sums (_prefix_s0)",
    "circle.expected_value_E": "oracle of gy_lemma_diagnostic's expected value",
    "circle.f_partial": "pointwise oracle of F on the circle grid (_f_on_grid)",
    "circle.PartialSeries.tail_bound": "f_partial's truncation bound, which its oracle tests hold",
    "circle.kernel_K": "pointwise oracle of the grid kernel (_kernel_on_grid)",
    "circle.CircleGrid.z": "the whole grid's nodes, whose bits arc_classify's window nodes match",
    "zeros.hk_zero_sum": "evaluates H_k(X), the zero-sum term of S_k that its docstring names",
    "omega.mertens_ratio": "acceptance criterion 8: q/phi(q) against e^gamma log y (Mertens)",
    "zeros.rk_hk_consistency": "acceptance criterion 9: the per-zero identity r_k(rho) against H_k",
}


def _sources():
    """(package module name -> source, the sources of the modules in READERS)."""
    package = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    others = [path.read_text(encoding="utf-8")
              for folder in READERS for path in sorted((ROOT / folder).rglob("*.py"))]
    return package, others


def public_definitions(source: str, module: str) -> dict[str, ast.AST]:
    """The public names that a module defines, qualified, each with its defining node."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        found.update((f"{module}.{name}", node) for name in names if not name.startswith("_"))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id  # a dataclass or NamedTuple field
                elif isinstance(item, ast.FunctionDef):
                    name = item.name  # a method or property
                else:
                    continue
                if not name.startswith("_"):
                    found[f"{module}.{node.name}.{name}"] = item
    return found


def loads(tree: ast.AST) -> Counter:
    """How often the tree loads each name: ("name", n) bare, ("attr", n) as an attribute."""
    return Counter(
        ("name", node.id) if isinstance(node, ast.Name) else ("attr", node.attr)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    )


def unread(package: dict[str, str], others: list[str]) -> list[str]:
    """Public names of the package modules (name -> source) that no module reads.

    ``others`` are the sources of the reading modules outside the package.
    A module-level name is read bare or as an attribute of its module; a
    class member only as an attribute.
    """
    total = Counter()
    for source in [*package.values(), *others]:
        total += loads(ast.parse(source))
    missing = []
    for module, source in package.items():
        for qualified, node in public_definitions(source, module).items():
            owner, _, name = qualified.rpartition(".")
            kinds = ["attr"] if "." in owner else ["name", "attr"]
            own = loads(node)
            if all(total[kind, name] <= own[kind, name] for kind in kinds):
                missing.append(qualified)
    return sorted(missing)


def test_the_check_sees_what_it_looks_for():
    planted = {"mod": (
        "from dataclasses import dataclass\n"
        "LIMIT = 3\n"
        "@dataclass\nclass Report:\n    kept: float\n    written: float\n"
        "    @property\n    def doubled(self):\n        return 2 * self.kept\n"
        "def make():\n    return Report(kept=1.0, written=LIMIT)\n"
        "def recursive(n):\n    return recursive(n - 1) if n else make()\n"
        "def _private():\n    pass\n"
    )}
    # written is only a constructor keyword; recursive reads only itself
    reader = "from mod import make\nprint(make().doubled)\n"
    assert unread(planted, [reader]) == ["mod.Report.written", "mod.recursive"]
    # kept is read inside the package, by doubled
    assert unread(planted, []) == ["mod.Report.doubled", "mod.Report.written", "mod.recursive"]
    # a bare name that matches a field reads a local, not the field
    assert unread(planted, [reader + "written = 1\nprint(written)\n"]) \
        == ["mod.Report.written", "mod.recursive"]
    assert unread(planted, [reader + "make().written\nrecursive(1)\n"]) == []


def test_every_public_name_has_a_reader_or_a_role():
    assert [name for name in unread(*_sources()) if name not in ROLES] == []


def test_every_role_names_a_public_name_that_nothing_reads():
    # a role outlives its name, or its name gains a reader: the entry goes
    assert sorted(ROLES) == [name for name in unread(*_sources()) if name in ROLES]
