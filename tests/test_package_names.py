"""No dead names in the package: every import of a module is read there,
and every module-level name, public, private or UPPER_CASE constant, is
read somewhere in the package.  Names listed in ``__all__`` of ``__init__``
count as read.  Every ``random.Random`` is seeded by ``SAMPLE_SEED``, and
only ``basis.py`` groups indices by their margins."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "schuralg"
MODULES = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _exported(tree):
    """The strings listed in a module-level ``__all__``."""
    return {
        elt.value
        for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name) and target.id == "__all__"
        for elt in node.value.elts
    }


def _loaded(tree):
    """The names a module loads."""
    return {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _reads(tree):
    """The names a module loads, the attributes it reads and the names it
    imports from other modules."""
    names = _loaded(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _imports(tree):
    """The names a module binds by import, ``from __future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def _definitions(tree):
    """The names a module binds at module level by def, class or
    assignment, each name of a tuple target included."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


def _unread(keep):
    """The module-level names that ``keep`` selects and no module reads."""
    read = set().union(*map(_reads, MODULES.values())) | _exported(MODULES["__init__.py"])
    return [
        f"{filename}: {name}"
        for filename, tree in MODULES.items()
        for name in _definitions(tree) if keep(name) and name not in read
    ]


def test_every_import_is_read():
    exported = _exported(MODULES["__init__.py"])
    unread = []
    for filename, tree in MODULES.items():
        loaded = _loaded(tree) | (exported if filename == "__init__.py" else set())
        unread += [f"{filename}: {name}" for name in _imports(tree) if name not in loaded]
    assert unread == []


def test_every_public_name_is_read():
    assert _unread(lambda name: not name.startswith("_")) == []


def test_every_private_name_is_read():
    assert _unread(lambda name: name.startswith("_") and not name.startswith("__")) == []


def test_every_constant_is_read():
    assert _unread(str.isupper) == []


def test_every_rng_is_seeded_by_the_sample_seed():
    # one seed for every draw the checks make
    calls = [
        f"{filename}: {ast.unparse(node)}"
        for filename, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "Random"
    ]
    assert calls and all(call.endswith("Random(SAMPLE_SEED)") for call in calls), calls


def test_only_basis_groups_indices_by_margins():
    # the meeting pairs come from basis.meeting_index, not a grouping of one's own
    calls = [
        f"{filename}:{node.lineno}"
        for filename, tree in MODULES.items() if filename != "basis.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "setdefault"
        and node.args and isinstance(node.args[0], ast.Call)
        and getattr(node.args[0].func, "id", None) in ("row_sums", "col_sums")
    ]
    assert calls == []
