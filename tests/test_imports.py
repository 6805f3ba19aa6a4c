"""What a fresh ``import privsvm`` loads, and what each module imports."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys

import privsvm


def test_import_loads_no_scipy():
    # numpy is the package's only runtime dependency
    src = os.path.dirname(os.path.dirname(privsvm.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import sys, privsvm; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_no_module_imports_scipy():
    # every import of the package, in a function body too: the QP core
    # decides family membership, and weight learning runs its own loop
    found = []
    for info in pkgutil.iter_modules(privsvm.__path__):
        path = os.path.join(os.path.dirname(privsvm.__file__),
                            f"{info.name}.py")
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [(alias.name, None) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [(node.module, alias.name) for alias in node.names]
            else:
                continue
            found += [(info.name, module, name) for module, name in names
                      if module.split(".")[0] == "scipy"]
    assert found == []


def test_every_export_resolves():
    # an __all__ entry is not checked at import, only by a star import
    for info in pkgutil.iter_modules(privsvm.__path__):
        module = importlib.import_module(f"privsvm.{info.name}")
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert missing == [], info.name


def _imported_names(tree):
    """(bound name, line) of each module-level import but __future__'s."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exports(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def test_no_unused_imports():
    # a module-level import is read in its module or re-exported by its
    # __all__; the package's __init__ only re-exports, so it is exempt
    unused = []
    for info in pkgutil.iter_modules(privsvm.__path__):
        path = os.path.join(os.path.dirname(privsvm.__file__),
                            f"{info.name}.py")
        with open(path) as fh:
            tree = ast.parse(fh.read())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)} | _exports(tree)
        unused += [f"{info.name}.py:{line} {name}"
                   for name, line in _imported_names(tree)
                   if name not in used]
    assert unused == []



def _loads(tree):
    """Each name a module loads, bare or as an attribute, except where a
    top-level function or class loads its own name in its own body."""
    for top in tree.body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            name = (node.id if isinstance(node, ast.Name)
                    else getattr(node, "attr", None))
            if name is not None and name != own:
                yield name


def test_every_export_has_a_caller():
    # an export that only its own unit tests reach is dead weight: each is
    # read by other package code, the benchmark, the tools or an
    # acceptance test (docstrings, comments and __all__ do not count)
    package = os.path.dirname(privsvm.__file__)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = [os.path.join(package, f"{info.name}.py")
             for info in pkgutil.iter_modules(privsvm.__path__)]
    for folder in ("bench", "tools"):
        paths += sorted(os.path.join(root, folder, name)
                        for name in os.listdir(os.path.join(root, folder))
                        if name.endswith(".py"))
    paths.append(os.path.join(root, "tests", "test_acceptance.py"))
    loaded = set()
    for path in paths:
        with open(path) as fh:
            loaded.update(_loads(ast.parse(fh.read())))
    with open(os.path.join(package, "__init__.py")) as fh:
        exported = {name for name, _ in _imported_names(ast.parse(fh.read()))}
    uncalled = sorted(exported - loaded)
    assert uncalled == [], f"exported but never called: {uncalled}"


def test_model_contract_defined_once():
    # the three fitted models share one kernel expansion: each member of
    # its contract is defined in exactly one class of the package
    package = os.path.dirname(privsvm.__file__)
    owners = {"predict": [], "decision_train": [], "gram_train": []}
    for info in pkgutil.iter_modules(privsvm.__path__):
        with open(os.path.join(package, f"{info.name}.py")) as fh:
            tree = ast.parse(fh.read())
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if getattr(node, "name", None) in owners:
                        owners[node.name].append(f"{info.name}.{cls.name}")
    assert all(len(classes) == 1 for classes in owners.values()), owners
