"""The test oracles in ``reference.py`` stay independent of the program."""

import ast
import sys
from pathlib import Path


def test_reference_imports_only_the_standard_library():
    # Not formcoach, and no test module or package that might import it.
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported
    assert [name for name in imported
            if name.split(".")[0] not in sys.stdlib_module_names] == []
