import ast
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
