"""The package's public namespace and the hygiene of its modules."""

import ast
import pathlib
import types

import stonework

SRC = pathlib.Path(stonework.__file__).parent

#: Functions, classes and methods defined in the package that no module of
#: the package reads, as module.name or module.Class.method. The list may only
#: shrink: a name here that gains a caller fails the tests below too.
UNCALLED = {
    # test_lattice.reference_closure checks the joins of meet_closure, which
    # go through numerics.stacked_join, against it
    "matrix_algebra.fibered_join",
    # the unit of the algebra: tests in five files build operators from it
    "matrix_algebra.identity",
    # the center element of one coordinate: test_hilbert_module and
    # test_fiber_oracles read module elements coordinate by coordinate
    "hilbert_module.ModuleElement.component",
    # the per-fiber steps of a spectral family: the loop oracles of
    # test_observables and test_fiber_oracles walk them fiber by fiber
    "observables.SpectralFamily.cumulative",
    # the node index of an operator: tests in three files look nodes up
    "lattice.FiniteLattice.index_of",
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


def _called():
    return set().union(
        *(_references(tree) for stem, tree in _modules().items() if stem != "__init__")
    )


def _definitions(stem, tree):
    """module.name of each top-level function and class, and module.Class.name
    of each method other than a dunder."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            yield f"{stem}.{stmt.name}", stmt.name
        if isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{stem}.{stmt.name}.{item.name}", item.name


def test_every_export_has_a_caller_in_the_package():
    uncalled = set(stonework.__all__) - _called()
    assert sorted(uncalled) == sorted(q.split(".")[1] for q in UNCALLED if q.count(".") == 1)


def test_every_definition_has_a_caller_in_the_package():
    called = _called()
    uncalled = {
        qualified
        for stem, tree in _modules().items()
        for qualified, name in _definitions(stem, tree)
        if name not in called
    }
    assert sorted(uncalled - UNCALLED) == []
    assert sorted(UNCALLED - uncalled) == []


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
