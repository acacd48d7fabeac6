"""Every name a grassmat module imports is used in that module.

The package's __init__ imports only to re-export, so it is exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "grassmat"

# harness.atoms is bound for the benchmark tracer, which wraps it by name
ALLOWED = {("harness", "atoms")}


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_every_import_is_used():
    unused = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {(path.stem, name) for name in imported_names(tree) if name not in used}
    # equal, not a subset: an allowed entry its module has since put to use fails too
    assert unused == ALLOWED
