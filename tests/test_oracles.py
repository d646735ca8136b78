"""The oracles in ``oracles.py`` recompute expected values by routes that do not
go through the library, so they must not import it."""
import ast
from pathlib import Path


def test_oracles_import_no_steincal_module():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    offending = [name for name in imported
                 if name.split(".")[0] == "steincal" or name.startswith(".")]
    assert not offending, f"oracles.py imports {offending}"
