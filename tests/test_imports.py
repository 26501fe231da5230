"""Source hygiene: no module of the package imports a name it never uses,
and the engine never loads the oracles it is checked against."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "etaq"


def unused_imports(source):
    """Names bound by an import in `source` that no expression reads.
    `__future__` imports are directives, not names, and are skipped."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_walk_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nfrom . import a as b, c\nc()\n"
    assert unused_imports(source) == ["b", "os"]


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports names only to re-export them
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def imports_oracles(source):
    """Whether `source` imports the oracles module or a name from it, in any
    spelling: `from .oracles import x`, `from . import oracles`,
    `import etaq.oracles`, `from etaq import oracles`."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[-1] == "oracles" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "oracles":
                return True
            if any(alias.name == "oracles" for alias in node.names):
                return True
    return False


def test_the_oracle_walk_finds_each_spelling():
    spellings = ("from .oracles import primes_up_to", "from . import oracles",
                 "import etaq.oracles", "from etaq import oracles as o")
    assert all(imports_oracles(line) for line in spellings)
    assert not imports_oracles('from .sturm import agreement_bound\n"""the oracles"""')


def test_no_engine_module_imports_the_oracles():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "oracles.py")
    assert modules
    assert [p.name for p in modules if imports_oracles(p.read_text())] == []


def test_importing_the_cli_leaves_the_oracles_unloaded():
    code = "import sys, etaq.cli; print('etaq.oracles' in sys.modules, 'etaq.congruence' in sys.modules)"
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "True"]
