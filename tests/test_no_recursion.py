"""No module-level function of the package calls itself by name.  Python's
stack holds about a thousand frames, so a recursion whose depth follows the
input (a path, a chain of predecessors) crashes on a large enough one."""

import ast
from pathlib import Path

import leavitt

#: The recursive functions allowed, each with why its depth stays small.
ALLOWED = {
    ("fields", "_radical"): "it recurses only on a p-th root, of at most 1/p of the "
                            "degree, so its depth is at most log_p of the degree",
}


def self_calling_functions() -> set[tuple[str, str]]:
    """(module, function) for each module-level function of ``leavitt`` whose
    body calls its own name."""
    found = set()
    for path in sorted(Path(leavitt.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                    and n.func.id == node.name for n in ast.walk(node)):
                found.add((path.stem, node.name))
    return found


def test_only_the_allowed_functions_recurse():
    # equality, not inclusion: the allowed one shows that the scan finds recursion
    assert self_calling_functions() == set(ALLOWED)
