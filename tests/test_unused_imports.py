"""Source scans: every import under src/ is used, every export has a caller,
every record field is read."""

import ast
import re
from pathlib import Path

import lecam_equiv

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "lecam_equiv"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names listed in __all__ are re-exported, which counts as a use
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_unused_imports_in_src():
    found = {
        path.name: unused
        for path in sorted(SRC.glob("*.py"))
        if (unused := _unused_imports(ast.parse(path.read_text())))
    }
    assert found == {}


def test_unused_import_is_reported():
    tree = ast.parse("import os\nfrom math import pi, tau\nprint(pi)\n")
    assert _unused_imports(tree) == ["os (line 1)", "tau (line 2)"]


def _import_time_scipy(tree: ast.Module) -> list[str]:
    """scipy and its subpackages imported outside any function body."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.module == "scipy":
                names = [f"scipy.{alias.name}" for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            else:
                visit(child)
                continue
            found.extend(
                f"{name} (line {child.lineno})"
                for name in names
                if name == "scipy" or name.startswith("scipy.")
            )

    visit(tree)
    return found


def test_scipy_is_imported_on_use():
    # `import lecam_equiv` loads numpy and the standard library only: a
    # study pays for no scipy subpackage it never reaches, and
    # scipy.special alone brings numpy.f2py, numpy.testing and numpy.ma
    found = {
        path.name: eager
        for path in sorted(SRC.glob("*.py"))
        if (eager := _import_time_scipy(ast.parse(path.read_text())))
    }
    assert found == {}, "import scipy inside the function that uses it"


def test_import_time_scipy_is_reported():
    tree = ast.parse(
        "import scipy\nimport scipy.stats\nfrom scipy import special, integrate\n"
        "from scipy.special import ndtr\nfrom scipy.interpolate import CubicSpline\n"
        "class A:\n    from scipy import fft\n\n\n"
        "def f():\n    from scipy import optimize\n"
    )
    assert _import_time_scipy(tree) == [
        "scipy (line 1)",
        "scipy.stats (line 2)",
        "scipy.special (line 3)",
        "scipy.integrate (line 3)",
        "scipy.special (line 4)",
        "scipy.interpolate (line 5)",
        "scipy.fft (line 7)",
    ]


def _uncalled_exports(names, sources: dict) -> list[str]:
    """Names with no whole-word use outside __init__.py and their own def/class line."""
    missing = []
    for name in names:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"^\s*(?:def|class)\s+{re.escape(name)}\b")
        if not any(
            word.search(line) and not own.match(line)
            for path, text in sources.items()
            if path.name != "__init__.py"
            for line in text.splitlines()
        ):
            missing.append(name)
    return missing


def _public_definitions() -> list[str]:
    """Every public top-level def and class in src/lecam_equiv/*.py."""
    return [
        node.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def test_every_export_has_a_caller():
    # the library is the pipeline: a public name that no module, demo or
    # benchmark script uses is a second way to compute something
    sources = {
        path: path.read_text()
        for root in (SRC, REPO / "demos", REPO / "perfbench")
        for path in sorted(root.rglob("*.py"))
    }
    names = sorted(set(lecam_equiv.__all__) | set(_public_definitions()))
    assert _uncalled_exports(names, sources) == []


def test_uncalled_export_is_reported():
    sources = {
        Path("__init__.py"): "from .m import used, unused\n",
        Path("m.py"): "def used():\n    pass\n\n\nclass unused:\n    x = used()\n",
    }
    assert _uncalled_exports(["used", "unused"], sources) == ["unused"]


def _record_fields(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, field) for every annotated field in a class body and every
    `self.<name> = ...` store in one of its methods, once each."""
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                found[node.name, stmt.target.id] = None
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for sub in ast.walk(stmt):
                    if (
                        isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"
                    ):
                        found[node.name, sub.attr] = None
    return list(found)


def _read_names(tree: ast.Module) -> set[str]:
    """Attribute names loaded anywhere, plus every string constant."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _unread_fields(defining: dict, reading: list) -> list[str]:
    """`file: class.field` for each field of the defining trees no reading tree loads."""
    read = set().union(*map(_read_names, reading))
    return [
        f"{name}: {cls}.{field}"
        for name, tree in defining.items()
        for cls, field in _record_fields(tree)
        if field not in read
    ]


def test_every_record_field_is_read():
    """A field or attribute that no code reads is computed and stored for nothing.

    The scan matches names, not owners: a field that shares its name
    with an attribute read elsewhere passes unseen.  A regularity
    report's `epsilon`, for one, could hide behind `config.epsilon`.
    """
    reading = [
        ast.parse(path.read_text())
        for root in (SRC, REPO / "demos", REPO / "perfbench", REPO / "tests")
        for path in sorted(root.rglob("*.py"))
    ]
    defining = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert _unread_fields(defining, reading) == []


def test_unread_attribute_is_reported():
    tree = ast.parse(
        "class Plan:\n    kept: float\n    lost: float\n\n"
        "    def __init__(self, a):\n        self.a = a\n"
        "        self.unread, self.b = a, a\n\n"
        "    def use(self):\n        return self.kept + self.b\n"
    )
    user = ast.parse("def f(plan):\n    return plan.a\n")
    assert _unread_fields({"m.py": tree}, [tree, user]) == ["m.py: Plan.lost", "m.py: Plan.unread"]


def _callers(tree: ast.Module, name: str) -> list[str]:
    """The innermost def around each call of name, as name(...) or x.name(...)."""
    callers = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", getattr(func, "attr", None)) == name:
                    callers.append(owner)
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else owner)

    visit(tree, "<module>")
    return callers


def test_the_design_is_derived_in_one_place():
    # every unit builds one checked design cell and its draws sample that
    # theta; a second derivation of the grid or the check would bypass it
    for name in ("design_grid", "in_working_interval"):
        callers = [
            owner
            for path in sorted(SRC.glob("*.py"))
            for owner in _callers(ast.parse(path.read_text()), name)
        ]
        assert callers == ["design_cell"], name


def test_design_caller_is_reported():
    tree = ast.parse(
        "def a():\n    design_grid(3)\n\n\nclass B:\n"
        "    def c(self):\n        return x.design_grid(1)\n\n\ndesign_grid(2)\n"
    )
    assert _callers(tree, "design_grid") == ["a", "c", "<module>"]
