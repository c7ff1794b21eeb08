"""The package's public namespace and the hygiene of its modules."""

import ast
import pathlib
import types

import stonework

SRC = pathlib.Path(stonework.__file__).parent

#: Functions, classes and methods defined in the package that no module of
#: the package reads, as module.name or module.Class.method. The list may only
#: shrink: a name here that gains a caller fails the tests below too.
UNCALLED = set()


def _modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _module_names(tree):
    """Names a module binds to modules (``np``, ``math``, ``ma``, ...), and
    what the names it imports from the package's modules stand for: a module
    alias its module (``ct``: ``center``), any other name ``module.name``."""
    stems = {path.stem for path in SRC.glob("*.py")}
    out, package = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:
            for a in node.names:
                local = a.asname or a.name
                if node.module:
                    package[local] = f"{node.module}.{a.name}"
                elif a.name in stems:
                    out.add(local)
                    package[local] = a.name
    return out, package


def _references(stem, tree):
    """What a module reads outside the top-level definition that binds each
    name: the top-level definitions each read resolves to, as module.name (a
    bare name is an import or a definition of the module itself, and
    ``ct.zero`` is center.zero), and apart, the names of the attribute reads
    on something other than a module, which alone can read a method."""
    names, attributes = set(), set()
    modules, package = _module_names(tree)
    for stmt in tree.body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id != own:
                names.add(package.get(node.id, f"{stem}.{node.id}"))
            elif isinstance(node, ast.Attribute) and node.attr != own:
                if not (isinstance(node.value, ast.Name) and node.value.id in modules):
                    attributes.add(node.attr)
                elif node.value.id in package:
                    names.add(f"{package[node.value.id]}.{node.attr}")
    return names, attributes


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
    """Top-level definitions read anywhere in the package, as module.name, and
    the names of the attribute reads (see ``_references``)."""
    refs = [_references(stem, tree) for stem, tree in _modules().items() if stem != "__init__"]
    return set().union(*(n for n, _ in refs)), set().union(*(a for _, a in refs))


def _definitions(stem, tree):
    """module.name of each top-level function and class, and module.Class.name
    of each method other than a dunder, with whether it is a method."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            yield f"{stem}.{stmt.name}", stmt.name, False
        if isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{stem}.{stmt.name}.{item.name}", item.name, True


def test_every_export_has_a_caller_in_the_package():
    source = _module_names(_modules()["__init__"])[1]  # export -> module.name
    uncalled = {source[name] for name in stonework.__all__} - _called()[0]
    assert sorted(uncalled) == sorted(q for q in UNCALLED if q.count(".") == 1)


def test_every_definition_has_a_caller_in_the_package():
    names, attributes = _called()
    uncalled = {
        qualified
        for stem, tree in _modules().items()
        for qualified, name, method in _definitions(stem, tree)
        if not (name in attributes if method else qualified in names)
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
