"""No library surface that only tests reach.

Every top-level function and class of `src/flatwall` must have a reader in
`src/` or `perfbench/`: a name or attribute that loads it outside its own
definition, or a dotted name quoted in `perfbench/tracing.py`'s TARGETS.
Imports alone do not count. A dead definition fails here by name; delete
it, give it a caller, or add it to KEPT with the paper notion or file
format it implements.

The desk limits the README documents are exactly the fields of `Limits`,
which `Limits.override_from_env` reads from the environment.

No module of `src/flatwall` imports a name it never reads, so an import
left behind by a deletion fails here by name.
"""
import ast
import re
from dataclasses import fields
from pathlib import Path

from flatwall.config import Limits

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "flatwall"

# read only by tests, kept because each is a notion of the paper or a format
KEPT = {
    "admits_pegs_corners": "the choice of pegs and corners",
    "choices_of_pegs_corners": "the choice of pegs and corners",
    "is_well_aligned": "well-alignment of a regular flatness pair",
    "stretching": "the stretching of a flap path",
    "temp_degree": "the elementary r-wall, its degrees",
    "temp_edges": "the elementary r-wall, its edges",
    "temp_vertices": "the elementary r-wall, its vertices",
    "w_bullet": "the graph W-bullet of a leveling",
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


def unread_definitions(kept=KEPT) -> list:
    defined = []            # (module, name, node)
    reads = {}              # (module, top-level name or None) -> loads
    bench = ROOT / "perfbench"
    for path in sorted(SRC.glob("*.py")) + sorted(bench.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        mod = path.relative_to(ROOT).as_posix()
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if path.parent == SRC:
                    defined.append((mod, stmt.name, stmt))
                reads[mod, stmt.name] = _loads(stmt)
            else:
                reads.setdefault((mod, None), set()).update(_loads(stmt))
    traced = _traced_names()
    dead = []
    for mod, name, node in defined:
        if name in kept or name in traced or _is_click_command(node):
            continue
        if not any(name in loads for key, loads in reads.items()
                   if key != (mod, name)):
            dead.append(f"{mod}:{node.lineno} {name}")
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
