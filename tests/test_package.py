"""The public surface of the vkp package."""

import ast
import sys
import types
from pathlib import Path

import vkp


def test_all_resolves_and_lists_every_public_name():
    for name in vkp.__all__:
        assert hasattr(vkp, name), name
    public = {
        name for name, value in vars(vkp).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(vkp.__all__) == len(set(vkp.__all__))
    assert set(vkp.__all__) == public


def test_package_imports_only_the_standard_library():
    # relative imports (level > 0) stay inside the package
    src = Path(vkp.__file__).parent
    files = sorted(src.glob("*.py"))
    assert files
    for f in files:
        for node in ast.walk(ast.parse(f.read_text(), str(f))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, f"{f.name} imports {name}"


def test_every_top_level_definition_is_used_or_exported():
    # a definition counts as used when a name or attribute outside its own
    # body names it, in any module of the package
    src = Path(vkp.__file__).parent
    defined, used = [], set()
    for f in sorted(src.glob("*.py")):
        for stmt in ast.parse(f.read_text(), str(f)).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = stmt.name
                defined.append((f.name, own))
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:
                    used.add(name)
    unused = [(f, n) for f, n in defined if n not in used and n not in vkp.__all__]
    assert defined and not unused, unused


def test_tests_use_every_name_they_import():
    unused = []
    for f in sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(f.read_text(), str(f))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(f.name, name) for name in imported if name not in used]
    assert not unused, unused


# The functions of src/vkp that reach themselves in the call graph, each
# with what bounds its depth.  The list can only shrink: a listed function
# that no longer reaches itself fails the guard too.
RECURSIVE = {
    # the generator's search: _inhabit and its ten moves, each call a step
    # down from max_depth
    ("gen", "_inhabit"), ("gen", "_intro"), ("gen", "_app_ctx"),
    ("gen", "_app_ctx2"), ("gen", "_case_ctx"), ("gen", "_exfalso_neg"),
    ("gen", "_beta_redex"), ("gen", "_proj_redex"), ("gen", "_case_redex"),
    ("gen", "_try_harrop"), ("gen", "_try_visser"),
    # a random formula, at most 3 deep wherever it is called
    ("gen", "_formula"),
    # G4ip search, one frame per rule and unbounded: `vkp prove` of a
    # 1,000-deep implication exits with a RecursionError
    ("oracle", "_prove"),
}


def _call_graph():
    """{(module, function): the (module, function) pairs it calls} over
    src/vkp, a method keyed as Class.name.  Only plain calls f(...) count,
    resolved to the module's own function or to the one a `from .m import
    f` brings in, and self.f(...) or cls.f(...) in a method, resolved to
    its class's.  So shape.children(...) is no edge, and gen._formula is
    not parser._formula."""
    funcs, imported = {}, {}
    for f in Path(vkp.__file__).parent.glob("*.py"):
        mod = f.stem
        todo = [(ast.parse(f.read_text(), str(f)), None)]
        while todo:
            node, cls = todo.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ImportFrom) and child.level == 1:
                    for a in child.names:
                        imported[mod, a.asname or a.name] = (child.module, a.name)
                elif isinstance(child, ast.FunctionDef):
                    name = f"{cls.name}.{child.name}" if cls else child.name
                    assert (mod, name) not in funcs, (mod, name)  # one key, one function
                    funcs[mod, name] = (child, cls)
                todo.append((child, child if isinstance(child, ast.ClassDef) else None))
    calls = {}
    for (mod, name), (fn, cls) in funcs.items():
        out = calls[mod, name] = set()
        for call in ast.walk(fn):
            f = call.func if isinstance(call, ast.Call) else None
            if isinstance(f, ast.Name):
                key = (mod, f.id) if (mod, f.id) in funcs else imported.get((mod, f.id))
            elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                  and f.value.id in ("self", "cls") and cls):
                key = (mod, f"{cls.name}.{f.attr}")
            else:
                continue
            if key in funcs:
                out.add(key)
    return calls


def test_no_function_reaches_itself_but_the_bounded_ones():
    calls = _call_graph()
    assert {("parser", "_term"), ("syntax", "substitute"), ("oracle", "_prove"),
            ("parser", "_Source.fail")} <= set(calls)
    assert ("gen", "_inhabit") in calls["gen", "_intro"]  # a same-module edge
    assert ("syntax", "substitute") in calls["parser", "parse_script"]  # an imported one
    reaching = set()
    for start in calls:
        seen, todo = set(), list(calls[start])
        while todo:
            f = todo.pop()
            if f not in seen:
                seen.add(f)
                todo += calls[f]
        if start in seen:
            reaching.add(start)
    assert reaching - RECURSIVE == set(), "recursion outside the list"
    assert RECURSIVE - reaching == set(), "listed, but no longer recursive"
