"""The CI workflow names only tests that exist.

The Sandybridge step runs a hand-written list of test node IDs, and a test
renamed without that list being updated would fail only in CI.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

# tests/<file>.py::<Class>::<test>, with any [parametrize] suffix left off
NODE_ID = re.compile(r"\b(tests/[\w/]+\.py)::(\w+)::(\w+)(?:\[[^\]\"]*\])?")


def _test_functions(path: Path) -> set[tuple[str, str]]:
    """Every ``(class, function)`` pair of a test file's top-level classes."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        (node.name, item.name)
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef)
    }


def test_every_listed_node_id_resolves():
    node_ids = NODE_ID.findall(WORKFLOW.read_text(encoding="utf-8"))
    assert len(node_ids) >= 8
    missing = [
        f"{path}::{cls}::{name}"
        for path, cls, name in node_ids
        if not (ROOT / path).is_file() or (cls, name) not in _test_functions(ROOT / path)
    ]
    assert missing == []
