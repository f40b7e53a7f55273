import ast
import importlib
import pkgutil
import re
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


BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def saddle_es_names(path):
    """(line, dotted name) of every saddle_es name a source file imports or
    reads: the names its saddle_es imports bind, and every attribute chain read
    off one of those names, such as ``estimators.drift_w``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "saddle_es":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                yield node.lineno, f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "saddle_es":
                    # "import saddle_es.cli" binds saddle_es; with "as x", x is saddle_es.cli
                    bound[alias.asname or "saddle_es"] = alias.asname and alias.name or "saddle_es"
                    yield node.lineno, alias.name
    for node in ast.walk(tree):
        chain, base = [], node
        while isinstance(base, ast.Attribute):
            chain.append(base.attr)
            base = base.value
        if chain and isinstance(base, ast.Name) and base.id in bound:
            yield node.lineno, ".".join([bound[base.id], *reversed(chain)])


def resolves(dotted):
    """Whether a dotted saddle_es name names a module or an attribute."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        if not hasattr(obj, part):
            try:
                importlib.import_module(".".join(parts[:i]))
            except ImportError:
                return False
        obj = getattr(obj, part)
    return True


def test_every_saddle_es_name_the_benchmark_uses_resolves():
    # the benchmark runs these files against the package; a name deleted from
    # the package would otherwise show only when the benchmark runs
    names = {(path.name, line, name) for path in (BENCH / "probe.py", BENCH / "workloads.py")
             for line, name in saddle_es_names(path)}
    assert {"saddle_es.estimators.drift_w", "saddle_es.normalization.NormalizedState",
            "saddle_es.cli.main", "saddle_es.drift_map"} <= {name for _, _, name in names}
    missing = sorted(f"{file}:{line}: {name}" for file, line, name in names if not resolves(name))
    assert not missing, missing


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_names():
    """Every dotted name in a README code span that starts with a saddle_es
    module or export, such as ``es._SIGMA_MIN``, as a saddle_es name."""
    heads = {module.name for module in pkgutil.iter_modules(saddle_es.__path__)}
    heads |= {name for name in vars(saddle_es) if not name.startswith("_")}
    head = "|".join(sorted(heads | {"saddle_es"}, key=len, reverse=True))
    spans = re.findall(rf"`((?:{head})(?:\.[A-Za-z_]\w*)+)", README.read_text(encoding="utf-8"))
    return {name if name.startswith("saddle_es.") else f"saddle_es.{name}" for name in spans}


def test_every_saddle_es_name_the_readme_names_resolves():
    # a README that names deleted code reads as a description of the package
    names = readme_names()
    assert {"saddle_es.es._SIGMA_MIN", "saddle_es.objective._f", "saddle_es.cli._record",
            "saddle_es.estimators.CONFIDENCE", "saddle_es.tasks.task_rng"} <= names
    missing = sorted(name for name in names if not resolves(name))
    assert not missing, missing
