"""The package's public namespace and the hygiene of its modules."""

import ast
import pathlib
import types

import stonework

SRC = pathlib.Path(stonework.__file__).parent

#: Exported names that no module of the package calls. The list may only
#: shrink: a name here that gains a caller fails the test below too.
UNCALLED_EXPORTS = {
    # test_lattice.reference_closure checks the joins of meet_closure, which
    # go through numerics.stacked_join, against it
    "fibered_join",
    # the unit of the algebra: tests in five files build operators from it
    "identity",
    # the orthogonal split b = a*alpha + rest of the module; test_fiber_oracles
    # checks its coefficients bit for bit against a per-fiber reference
    "decompose",
    # the generating line of an abelian projection, one of the batched
    # per-fiber operations the README lists; test_fiber_oracles checks it
    # bit for bit against a per-fiber reference
    "abelian_generator",
}


def _modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _references(tree):
    """Names a module reads, bare or as an attribute, outside the top-level
    definition that binds each name."""
    out = set()
    for stmt in tree.body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name != own:
                out.add(name)
    return out


def _exported(tree):
    """The strings of a module-level ``__all__`` list."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            return {elt.value for elt in stmt.value.elts}
    return set()


def test_all_names_resolve_and_are_not_modules():
    assert len(set(stonework.__all__)) == len(stonework.__all__)
    for name in stonework.__all__:
        assert not isinstance(getattr(stonework, name), types.ModuleType), name


def test_every_export_has_a_caller_in_the_package():
    called = set().union(
        *(_references(tree) for stem, tree in _modules().items() if stem != "__init__")
    )
    uncalled = set(stonework.__all__) - called
    assert sorted(uncalled - UNCALLED_EXPORTS) == []
    assert sorted(UNCALLED_EXPORTS - uncalled) == []


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for stem, tree in _modules().items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{stem}.py:{node.lineno} {name}")
    assert unused == []
