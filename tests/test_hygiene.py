"""Source hygiene: every imported name is used, and every definition is named.

Walks the AST of each module under src/ and tests/ and fails on a name that
an import binds but no expression ever loads.  Names listed in a module's
__all__ count as used, so package re-exports pass.

A second check fails on any top-level function or class, or method of a
top-level class, defined under src/ whose name no module under src/, tests/
or bench/ mentions: as a loaded name, an attribute, or a string that is
exactly the name (bench/ looks functions up by name).  Strings in __all__ do
not count.  Dunders and click commands are exempt.

A third check installs the benchmark's tracer, which wraps package functions
by module and name, and fails if any of those names is gone.

A fourth check fails on a config key that nothing reads: every key of the
command schemas must appear as a string somewhere under src/ outside the
schema dict literals themselves.

A fifth check fails on a module under src/ that imports another module's
underscore (private) name.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from ewflow.config import COMPARE_SCHEMA, EVAL_SCHEMA, QIPO_SCHEMA, TRAIN_SCHEMA

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))
MODULES = SOURCES + sorted((ROOT / "tests").rglob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or (isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                    continue
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not unused, f"{path.relative_to(ROOT)} imports unused names: {', '.join(unused)}"


def _mentions(tree: ast.Module) -> set[str]:
    exported = {
        id(e)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for e in ast.walk(node.value)
    }
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in exported:
                names.add(node.value)
    return names


def _definitions(tree: ast.Module):
    """Top-level functions and classes, and the methods of top-level classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (n for n in node.body if isinstance(n, defs[:2]))


def _is_click_command(node) -> bool:
    return any(
        isinstance(d, ast.Call)
        and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in getattr(node, "decorator_list", [])
    )


def test_every_source_definition_is_named_somewhere():
    scanned = MODULES + sorted((ROOT / "bench").rglob("*.py"))
    mentioned = set().union(*(_mentions(ast.parse(p.read_text())) for p in scanned))
    unnamed = [
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
        for path in SOURCES
        for node in _definitions(ast.parse(path.read_text(), filename=str(path)))
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and not _is_click_command(node)
        and node.name not in mentioned
    ]
    assert not unnamed, "definitions nothing names: " + ", ".join(unnamed)


def test_bench_tracer_finds_every_traced_name():
    # bench/worker.py wraps package functions by module attribute; a name it
    # wraps that a module no longer binds breaks `bench/run.py --trace 1`.
    # A subprocess keeps the wrappers out of this test session.
    probe = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'bench')!r}); "
        "import tracing, worker; worker.install_tracer(tracing.Tracer())"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr


def _dead_config_keys(texts) -> list[str]:
    """Schema keys that no string constant in the given module texts names,
    not counting the strings of the schema dicts (`*_SCHEMA`, `_COMMON_*`)."""
    strings = set()
    for text in texts:
        tree = ast.parse(text)
        schema_nodes = {
            id(e)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(
                isinstance(t, ast.Name) and (t.id.endswith("_SCHEMA") or t.id.startswith("_COMMON_"))
                for t in node.targets
            )
            for e in ast.walk(node.value)
        }
        strings |= {
            n.value
            for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and isinstance(n.value, str) and id(n) not in schema_nodes
        }
    keys = {k for schema in (TRAIN_SCHEMA, QIPO_SCHEMA, COMPARE_SCHEMA, EVAL_SCHEMA) for k in schema}
    return sorted(keys - strings)


def test_every_config_key_is_read():
    dead = _dead_config_keys(p.read_text() for p in SOURCES)
    assert not dead, "config keys nothing reads: " + ", ".join(dead)


def test_dead_config_key_check_catches_a_dropped_train_field():
    # compare-guidance and train read n_data only through _TRAIN_FIELDS
    entry = '    "n_data": "n_data",\n'
    texts = [p.read_text() for p in SOURCES]
    config = next(i for i, p in enumerate(SOURCES) if p.name == "config.py")
    assert texts[config].count(entry) == 1
    texts[config] = texts[config].replace(entry, "")
    assert _dead_config_keys(texts) == ["n_data"]


def test_no_module_imports_another_modules_private_names():
    private = [
        f"{path.relative_to(ROOT)}:{node.lineno} {alias.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, "private names imported from sibling modules: " + ", ".join(private)
