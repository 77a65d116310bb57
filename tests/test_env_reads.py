"""Guard: the package reads exactly two environment variables.

`GRAFT_FORCE_SCALE_PLAN` (stages/partition.py) is the one switch that
drives every size gate onto its at-scale plan; `GRAFT_ENABLE_HTTP`
(stages/fetch.py) is a deployment setting.  Any other read — including
one whose name is not a string literal — fails this test, so a plan
choice cannot grow its own environment knob again."""

import ast
import glob
import os

ROOT = os.path.join(os.path.dirname(__file__), "..", "multimedia_indexing_ray")
ALLOWED = {
    ("stages/partition.py", "GRAFT_FORCE_SCALE_PLAN"),
    ("stages/fetch.py", "GRAFT_ENABLE_HTTP"),
}


def _env_reads(path):
    """(line, variable name or None) for every environ/getenv use."""
    tree = ast.parse(open(path).read())
    parent = {c: p for p in ast.walk(tree) for c in ast.iter_child_nodes(p)}
    for node in ast.walk(tree):
        name = getattr(node, "attr", None) or getattr(node, "id", None)
        if name not in ("environ", "environb", "getenv", "getenvb"):
            continue
        up = parent[node]
        if isinstance(up, ast.Attribute):  # os.environ.get(...) and friends
            up = parent[up]
        if isinstance(up, ast.Call):
            args = up.args
        elif isinstance(up, ast.Subscript):
            args = [up.slice]
        elif isinstance(up, ast.Compare):
            args = [up.left]
        else:
            args = []
        key = args[0].value if args and isinstance(args[0], ast.Constant) else None
        yield node.lineno, key


def test_package_reads_only_the_two_known_env_vars():
    found, bad = set(), []
    for path in glob.glob(os.path.join(ROOT, "**", "*.py"), recursive=True):
        rel = os.path.relpath(path, ROOT).replace(os.sep, "/")
        for line, key in _env_reads(path):
            if (rel, key) in ALLOWED:
                found.add((rel, key))
            else:
                bad.append(f"{rel}:{line} reads {key!r}")
    assert not bad, "environment reads outside the allowed two: " + ", ".join(bad)
    assert found == ALLOWED, f"scanner no longer sees the allowed reads: {found}"
