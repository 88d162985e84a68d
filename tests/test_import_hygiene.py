"""Every module-level import in the package is used.

A static check over the source of ``src/hodocusp`` (``__init__`` aside,
whose imports are the public names): a name that a module imports at its
top level must be read somewhere in that module, unless the benchmark's
tracer patches it there, as a ``(module, attr)`` of ``SPANS`` in
``perfbench/tracing.py``. A deletion that leaves an import behind fails
here.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hodocusp"
TRACING = ROOT / "perfbench" / "tracing.py"


def _span_targets():
    """The (module, attr) pairs of the tracer's ``SPANS``, loaded the way
    ``test_trace_spans.py`` loads them."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return {(module, attr) for module, attr, _ in mod.SPANS}


def _unused_imports(tree):
    """The names bound by the module's top-level imports and never loaded."""
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return {name: line for name, line in imported.items() if name not in loaded}


def test_every_module_level_import_is_used():
    spans = _span_targets()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = f"hodocusp.{path.stem}"
        for name, line in _unused_imports(ast.parse(path.read_text(), str(path))).items():
            if (module, name) not in spans:
                unused.append(f"{path.name}:{line} {name}")
    assert not unused, f"module-level imports never used: {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import math\nimport os.path\nfrom a import b, c as d\nx = math.pi + d\n")
    assert _unused_imports(tree) == {"os": 2, "b": 3}
