"""No library surface that only tests reach.

Every top-level function and class of `src/flatwall`, and every method of
its classes other than a dunder, must have a reader in `src/` or
`perfbench/`: a name or attribute that loads it outside its own definition,
or a dotted name quoted in `perfbench/tracing.py`'s TARGETS. Imports alone
do not count. A dead definition fails here by name (`Class.method` for a
method); delete it, give it a caller, or add it to KEPT with the paper
notion or file format it implements.

The desk limits the README documents are exactly the fields of `Limits`,
which `Limits.override_from_env` reads from the environment, and the
fixture profiles it lists are exactly `flatness.PROFILES`.

No module of `src/flatwall` imports a name it never reads, so an import
left behind by a deletion fails here by name.
"""
import ast
import re
from dataclasses import fields
from pathlib import Path

from flatwall.config import Limits
from flatwall.flatness import PROFILES

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "flatwall"

# read only by tests, kept because each is a notion of the paper or a format
KEPT = {
    "admits_pegs_corners": "the choice of pegs and corners",
    "choices_of_pegs_corners": "the choice of pegs and corners",
    "is_well_aligned": "well-alignment of a flatness pair",
    "stretching": "the stretching of a flap path",
    "temp_degree": "the elementary r-wall, its degrees",
    "temp_edges": "the elementary r-wall, its edges",
    "temp_vertices": "the elementary r-wall, its vertices",
    "w_bullet": "the graph W-bullet of a leveling",
    "Wall.bricks": "the bricks of a wall",
    "write_bundle": "the bundle format, the partner of read_bundle",
}


def _is_click_command(node) -> bool:
    """A function that a `@<group>.command(...)` or `@click.command`
    decorator registers, so the CLI reaches it without a named reader."""
    for dec in node.decorator_list:
        f = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(f, ast.Attribute) and f.attr in ("command", "group"):
            return True
    return False


def _loads(node) -> set:
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out.add(n.attr)
    return out


def _traced_names() -> set:
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for stmt in tree.body:
        if (isinstance(stmt, ast.Assign)
                and [t.id for t in stmt.targets
                     if isinstance(t, ast.Name)] == ["TARGETS"]):
            return {part for n in ast.walk(stmt.value)
                    if isinstance(n, ast.Constant) and isinstance(n.value, str)
                    for part in n.value.split(".")}
    raise AssertionError("perfbench/tracing.py has no TARGETS")


def _methods(cls):
    """The methods of a class, dunders aside (Python calls those)."""
    return [n for n in cls.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (n.name.startswith("__") and n.name.endswith("__"))]


def unread_definitions(kept=KEPT) -> list:
    defined = []            # (name, key prefix of its own reads, entry, node)
    reads = {}              # (module, top-level name or None, method) -> loads
    bench = ROOT / "perfbench"
    for path in sorted(SRC.glob("*.py")) + sorted(bench.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        mod = path.relative_to(ROOT).as_posix()
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if path.parent == SRC and not _is_click_command(stmt):
                    defined.append((stmt.name, (mod, stmt.name), stmt.name,
                                    stmt))
                members = (_methods(stmt) if isinstance(stmt, ast.ClassDef)
                           else [])
                for m in members:
                    reads[mod, stmt.name, m.name] = _loads(m)
                    if path.parent == SRC:
                        defined.append((m.name, (mod, stmt.name, m.name),
                                        f"{stmt.name}.{m.name}", m))
                rest = [n for n in ast.iter_child_nodes(stmt)
                        if n not in members]
                reads[mod, stmt.name, None] = set().union(
                    *map(_loads, rest))
            else:
                reads.setdefault((mod, None, None), set()).update(
                    _loads(stmt))
    traced = _traced_names()
    dead = []
    for name, own, entry, node in defined:
        if entry in kept or name in traced:
            continue
        if not any(name in loads for key, loads in reads.items()
                   if key[:len(own)] != own):
            dead.append(f"{own[0]}:{node.lineno} {entry}")
    return dead


def test_every_definition_has_a_reader_outside_tests():
    dead = unread_definitions()
    assert not dead, "no reader outside tests:\n" + "\n".join(dead)


def test_kept_names_are_defined_and_unread():
    # a kept name that is gone, or that gained a reader, leaves the list
    unread = {entry.split()[-1] for entry in unread_definitions(kept={})}
    assert sorted(set(KEPT) - unread) == []


def test_readme_names_exactly_the_limit_variables():
    named = set(re.findall(r"FLATWALL_LIMIT_([A-Z][A-Z_]*)",
                           (ROOT / "README.md").read_text()))
    assert sorted(named) == sorted(f.name.upper() for f in fields(Limits))


def test_readme_names_exactly_the_fixture_profiles():
    text = " ".join((ROOT / "README.md").read_text().split())
    listed = re.findall(r"fixture profiles \(([^)]*)\)", text)
    assert len(listed) == 1, "README lists the fixture profiles once"
    named = re.findall(r"`([^`]+)`", listed[0])
    assert sorted(named) == sorted(PROFILES)


def unread_imports() -> list:
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        loads = {n.id for n in ast.walk(tree)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in loads:
                        unread.append(f"{path.name}:{node.lineno} {name}")
    return unread


def test_every_import_is_read():
    unread = unread_imports()
    assert not unread, "imported and never read:\n" + "\n".join(unread)
