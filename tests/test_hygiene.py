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

A sixth check resolves attribute reads to classes (`self`, annotated
parameters, constructor calls, annotated returns and fields) and fails on a
method or property whose name another src/ class also defines but that no
read of its own class reaches; the second check cannot see these.
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


# ------------------------------------------------- per-class member reads


def _class_named(node, known):
    """The known class a name or dotted name (X, mod.X) refers to, else None."""
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name if name in known else None


def _annotated_class(node, known):
    """The known class an annotation names (X, "X", mod.X, X | None), else None."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval").body
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        sides = {_annotated_class(node.left, known), _annotated_class(node.right, known)}
        sides.discard(None)
        return sides.pop() if len(sides) == 1 else None
    return _class_named(node, known)


def _is_static(fn) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)


def _single_assignment(node):
    """(target, value) of `target = value`, else None."""
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        return node.targets[0], node.value
    return None


class _Types:
    """The class of an expression, as far as an AST walk can tell it.

    Known: `self` in a method, an annotated parameter or variable, and a
    variable assigned a constructor call or a call whose return annotation
    names a class; attributes of those through annotated class fields,
    `self.<name> = ...` assignments, and property or method return
    annotations.  Anything else is unknown (None).
    """

    def __init__(self, trees, known):
        self.known = known
        self.returns: dict = {}  # function name or (class, member) -> class
        self.fields: dict = {}  # (class, attribute) -> class
        for tree in trees:
            for node in tree.body:
                if isinstance(node, ast.FunctionDef):
                    cls = _annotated_class(node.returns, known)
                    # one name defined in two modules with other returns tells nothing
                    same = self.returns.get(node.name, cls) == cls
                    self.returns[node.name] = cls if same else None
                elif isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            cls = _annotated_class(item.returns, known)
                            self.returns[(node.name, item.name)] = cls
                        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                            self.fields[(node.name, item.target.id)] = _annotated_class(
                                item.annotation, known
                            )
        for tree in trees:  # self.<name> = <expr>, once every return annotation is known
            for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
                for fn in (n for n in cls.body if isinstance(n, ast.FunctionDef)):
                    env = self.scope(fn, {}, cls.name)
                    for target, value in filter(None, map(_single_assignment, ast.walk(fn))):
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                            and self.of(value, env)
                        ):
                            self.fields.setdefault((cls.name, target.attr), self.of(value, env))

    def of(self, expr, env):
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            owner = self.of(expr.value, env)
            return self.fields.get((owner, expr.attr)) or self.returns.get((owner, expr.attr))
        if not isinstance(expr, ast.Call):
            return None
        func = expr.func
        if _class_named(func, self.known):  # a constructor
            return _class_named(func, self.known)
        if isinstance(func, ast.Attribute):
            owner = self.of(func.value, env) or _class_named(func.value, self.known)
            if owner:
                return self.returns.get((owner, func.attr))
            return self.returns.get(func.attr)  # mod.function(...)
        return self.returns.get(getattr(func, "id", None))

    def scope(self, fn, outer: dict, cls=None) -> dict:
        """Classes of the variables inside fn, over the enclosing scope's; cls
        is the class whose method fn is."""
        env = dict(outer)
        if isinstance(fn, ast.Lambda):
            return env
        args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        for i, arg in enumerate(args):
            if cls and i == 0 and not _is_static(fn):
                env[arg.arg] = cls
            elif arg.annotation is not None:
                env[arg.arg] = _annotated_class(arg.annotation, self.known)
        for _ in range(2):  # the second pass sees variables assigned from variables
            for node in ast.walk(fn):
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    env[node.target.id] = _annotated_class(node.annotation, self.known)
                pair = _single_assignment(node)
                if pair and isinstance(pair[0], ast.Name) and self.of(pair[1], env):
                    env[pair[0].id] = self.of(pair[1], env)
        return env


def _member_reads(trees, types: _Types) -> set:
    """(class, member) of every attribute read whose receiver's class is known."""
    reads = set()

    def visit(node, env, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, env, child.name)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                method_of = cls if isinstance(node, ast.ClassDef) else None
                visit(child, types.scope(child, env, method_of), cls)
                continue
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                owner = types.of(child.value, env) or _class_named(child.value, types.known)
                if owner:
                    reads.add((owner, child.attr))
            visit(child, env, cls)

    for tree in trees:
        env = {}  # module-level variables, such as SCHED = PathSchedule.vp()
        for target, value in filter(None, map(_single_assignment, tree.body)):
            if isinstance(target, ast.Name) and types.of(value, env):
                env[target.id] = types.of(value, env)
        visit(tree, env, None)
    return reads


def _dead_shared_members(source_texts, other_texts) -> list[str]:
    """Methods and properties of src/ classes whose name another src/ class
    also defines, and that no read resolved to their own class reaches.

    The name-anywhere check cannot see these: the other class's readers keep
    the name alive.  A read whose receiver's class the walk cannot tell
    counts for no class, so a live member needs one typed reader.
    """
    sources = [ast.parse(text) for text in source_texts]
    members = {
        (cls.name, item.name): item.lineno
        for tree in sources
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
    }
    owners: dict = {}
    for cls, name in members:
        owners.setdefault(name, set()).add(cls)
    trees = sources + [ast.parse(text) for text in other_texts]
    known = {n.name for tree in trees for n in tree.body if isinstance(n, ast.ClassDef)}
    reads = _member_reads(trees, _Types(trees, known))
    return sorted(
        f"{cls}.{name} (line {line})"
        for (cls, name), line in members.items()
        if len(owners[name]) > 1 and (cls, name) not in reads
    )


def _texts():
    others = [p for p in MODULES if p not in SOURCES] + sorted((ROOT / "bench").rglob("*.py"))
    return [p.read_text() for p in SOURCES], [p.read_text() for p in others]


def test_every_shared_member_name_is_read_on_its_own_class():
    dead = _dead_shared_members(*_texts())
    assert not dead, "members read only through another class's name: " + ", ".join(dead)


def test_shared_member_check_catches_a_dead_property():
    # BanditSpec.state_dim had no reader, while OfflineDataset.state_dim has several
    sources, others = _texts()
    rl = next(i for i, p in enumerate(SOURCES) if p.name == "rl.py")
    live = "    @property\n    def action_dim(self) -> int:\n        return len(self.w)\n"
    assert sources[rl].count(live) == 1
    dead = "\n    @property\n    def state_dim(self) -> int:\n        return 1\n"
    sources[rl] = sources[rl].replace(live, live + dead)
    assert [d.split()[0] for d in _dead_shared_members(sources, others)] == ["BanditSpec.state_dim"]
