"""No linter runs on psgp, so this checks one of its rules: every name a
module of ``src/psgp`` imports is used in that module."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "psgp"
# imported for the benchmark's span recorder, which wraps them by name
KEPT = {("cli", "read_signal_file"), ("cli", "segment_recording")}


def unused_imports(tree: ast.Module) -> list[str]:
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unused = [name for name in unused_imports(tree) if (path.stem, name) not in KEPT]
    assert unused == [], f"{path.name} imports {unused} and never uses them"


def test_the_check_finds_an_unused_name():
    tree = ast.parse("import os\nfrom dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x: int = 0\n")
    assert unused_imports(tree) == ["os", "field"]
