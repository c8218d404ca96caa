"""Every module-level def in src/holo_isac is on the pipeline or allowlisted.

A static walk of name references over the package's syntax trees. The roots
are every module-level statement that is not a def (constants, tables, the
cli's __main__ guard), cli.main, and an allowlist: the names the acceptance
battery imports, every (owner, attr) the benchmark tracer hooks in
bench/tracer.py (SPAN_TARGETS and COUNT_TARGETS) and records.format_record,
the record codec's one-row writer. A reached def's whole body is walked; a
reached class brings its methods. A name resolves to a def of its own module
or to the def a `from .module import name` binds, and an import alone
references nothing, so the package's re-exports keep nothing alive. A def
that no root reaches is a second route for a job the pipeline does some
other way: it moves into the tests as an oracle or goes.
"""

import ast
import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "holo_isac"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def package_trees() -> dict:
    return {path.stem: parse(path) for path in sorted(PACKAGE.glob("*.py"))}


def bench_targets() -> list:
    """(owner path, attr) of every span and count hook of the tracer, read
    from the literal tables in bench/tracer.py."""
    found = []
    for node in parse(ROOT / "bench" / "tracer.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name)
                and t.id in ("SPAN_TARGETS", "COUNT_TARGETS")
                for t in node.targets):
            found += [(owner, attr)
                      for owner, attr, _ in ast.literal_eval(node.value)]
    assert found, "bench/tracer.py has no SPAN_TARGETS or COUNT_TARGETS"
    return found


def acceptance_imports() -> list:
    """(module, name) of every name tests/test_acceptance.py imports from
    the package."""
    found = []
    for node in ast.walk(parse(ROOT / "tests" / "test_acceptance.py")):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.startswith("holo_isac."):
            module = node.module.split(".", 1)[1]
            found += [(module, alias.name) for alias in node.names]
    return found


def allowlist() -> list:
    """(module, def name) roots besides cli.main."""
    roots = acceptance_imports() + [("records", "format_record")]
    for owner, attr in bench_targets():
        module, *cls = owner.split(".")
        # a hooked method keeps its class
        roots.append((module, cls[0] if cls else attr))
    return roots


def unreached_defs(trees: dict) -> list:
    """'module.name' of every module-level def that no root reaches."""
    defs = {(mod, node.name): node for mod, tree in trees.items()
            for node in tree.body if isinstance(node, DEFS)}
    bound = {}          # (module, local name) -> (defining module, name)
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    bound[(mod, alias.asname or alias.name)] = \
                        (node.module, alias.name)

    def references(mod, top):
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                key = (mod, node.id)
                key = key if key in defs else bound.get(key)
                if key in defs:
                    yield key

    module_statements = [
        (mod, node) for mod, tree in trees.items() for node in tree.body
        if not isinstance(node, DEFS + (ast.Import, ast.ImportFrom))]
    todo = [("cli", "main")] + [key for key in allowlist()
                                if key in defs]
    for mod, node in module_statements:
        todo.extend(references(mod, node))
    reached = set()
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        todo.extend(references(key[0], defs[key]))
    return sorted(f"{mod}.{name}" for mod, name in defs
                  if (mod, name) not in reached)


def test_every_bench_target_resolves_in_the_package():
    # the traced bench step fails on a hook whose target is gone
    missing = []
    for owner, attr in bench_targets():
        module, *rest = owner.split(".")
        obj = importlib.import_module(f"holo_isac.{module}")
        for part in rest:
            obj = getattr(obj, part, None)
        if getattr(obj, attr, None) is None:
            missing.append(f"{owner}.{attr}")
    assert not missing, f"bench targets missing from the package: {missing}"


def test_every_module_level_def_is_reached():
    unreached = unreached_defs(package_trees())
    assert not unreached, (
        "module-level defs that neither cli.main nor the allowlist reaches: "
        + ", ".join(unreached))


def test_the_walk_finds_an_unreached_def():
    trees = package_trees()
    trees["config"].body.append(ast.parse("def second_route():\n    pass\n")
                                .body[0])
    assert unreached_defs(trees) == ["config.second_route"]
