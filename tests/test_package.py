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
