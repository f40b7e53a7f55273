import ast
import sys
from pathlib import Path

import saddle_es

ALLOWED = sys.stdlib_module_names | {"numpy"}


def absolute_imports(path):
    """(line, top-level module) of every absolute import in a source file,
    inside functions too."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_numpy_and_the_standard_library():
    files = sorted(Path(saddle_es.__file__).parent.glob("*.py"))
    assert len(files) > 1
    outside = [f"{path.name}:{line}: {module}" for path in files
               for line, module in absolute_imports(path) if module not in ALLOWED]
    assert not outside, outside
