import ast
import contextlib
import io
import re
from pathlib import Path

import structlqr


def test_all_lists_each_imported_public_name_once():
    tree = ast.parse(Path(structlqr.__file__).read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(set(structlqr.__all__)) == len(structlqr.__all__)
    assert all(hasattr(structlqr, name) for name in structlqr.__all__)
    assert set(structlqr.__all__) == {name for name in imported
                                      if not name.startswith("_")}


def test_every_private_module_name_is_read():
    # a private name defined at module level is read by its module or
    # imported by another; a private name imported is read where imported
    modules = {path.stem: ast.parse(path.read_text())
               for path in Path(structlqr.__file__).parent.glob("*.py")
               if path.name != "__init__.py"}
    imported = {(node.module, alias.name) for tree in modules.values()
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    unread = []
    for module, tree in sorted(modules.items()):
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        exported = {name for mod, name in imported if mod == module}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom):
                names = {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = {node.name} - exported
            elif isinstance(node, ast.Assign):
                names = {sub.id for target in node.targets
                         for sub in ast.walk(target)
                         if isinstance(sub, ast.Name)} - exported
            else:
                continue
            unread += [f"{module}.{name}" for name in sorted(names)
                       if name.startswith("_") and not name.startswith("__")
                       and name not in read]
    assert unread == []


def test_every_imported_name_is_read():
    # an import, plain or from, binds a name that its module reads
    unread = []
    for path in sorted(Path(structlqr.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        bound = {alias.asname or alias.name.split(".")[0]
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 for alias in node.names}
        unread += [f"{path.stem}.{name}" for name in sorted(bound - read)]
    assert unread == []


def test_unstable_loop_is_raised_by_the_stability_gate_alone():
    # _check_hurwitz is the one stability check; a copy of it, or any
    # other raiser, would show up here.
    def raisers(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                yield from raisers(child, child.name)
            elif isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc
                target = exc.func if isinstance(exc, ast.Call) else exc
                if getattr(target, "id", None) == "UnstableClosedLoopError":
                    yield owner
            else:
                yield from raisers(child, owner)

    sites = [f"{path.stem}.{owner}"
             for path in sorted(Path(structlqr.__file__).parent.glob("*.py"))
             for owner in raisers(ast.parse(path.read_text()), None)]
    assert sites == ["system._check_hurwitz"]


def test_readme_quickstart_prints_the_value_its_comment_states():
    # the quickstart's closing comment states the printed number to the
    # digits shown; a change that moves the number updates the README
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("## Library quickstart\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    stated = re.search(r"^print\(.*\)\s+# (\S+)$", code, re.M).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    digits = len(stated.lower().split("e")[0].replace(".", "").lstrip("0"))
    assert float(f"{float(out.getvalue()):.{digits - 1}e}") == float(stated)
