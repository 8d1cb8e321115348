"""Static checks over src/telanom with the stdlib ast module: no unused
import, no module-level private function that nothing in the package
references (a retired helper must go with its last caller), no JSON
written outside the package's two JSON writers, no CSV written outside
its one CSV writer, and no process forked or thread started outside the
one function that runs work in a child process."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "telanom"


def _modules():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _referenced(tree):
    """Every name the module reads, as a bare name or an attribute, plus
    the names it lists in __all__."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            names.update(elt.value for elt in node.value.elts)
    return names


def _imported(tree):
    """(bound name, line) of every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_no_unused_imports():
    unused = []
    for name, tree in _modules().items():
        used = _referenced(tree)
        unused += ["%s:%d %s" % (name, line, bound)
                   for bound, line in _imported(tree) if bound not in used]
    assert unused == []


def test_every_private_function_is_referenced():
    modules = _modules()
    referenced = set()
    for tree in modules.values():
        referenced |= _referenced(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    unreferenced = [
        "%s:%d %s" % (name, node.lineno, node.name)
        for name, tree in modules.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in referenced]
    assert unreferenced == []


# the JSON writers: indented report files and compact model files
JSON_WRITERS = {("metrics.py", "save_report"), ("detectors.py", "save_model")}


def _json_writes(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("dump", "dumps")
            and isinstance(node.value, ast.Name) and node.value.id == "json"]


def test_json_is_written_only_by_the_two_writers():
    stray, writers = [], set()
    for name, tree in _modules().items():
        inside = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (
                    name, node.name) in JSON_WRITERS:
                writes = _json_writes(node)
                inside.update(writes)
                if writes:
                    writers.add((name, node.name))
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                stray.append("%s:%d from json import" % (name, node.lineno))
        stray += ["%s:%d json.%s" % (name, node.lineno, node.attr)
                  for node in _json_writes(tree) if node not in inside]
    assert stray == []
    assert writers == JSON_WRITERS


def test_csv_is_written_only_by_write_csv():
    """csv.writer and csv.DictWriter appear only inside ingest.write_csv."""
    stray = []
    for name, tree in _modules().items():
        inside = set()
        for node in ast.walk(tree):
            if (name, getattr(node, "name", None)) == ("ingest.py",
                                                       "write_csv"):
                inside.update(ast.walk(node))
        stray += ["%s:%d csv.%s" % (name, node.lineno, node.attr)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("writer", "DictWriter")
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "csv" and node not in inside]
        stray += ["%s:%d from csv import" % (name, node.lineno)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == "csv"]
    assert stray == []


def test_fork_is_called_only_by_in_child():
    """os.fork appears only inside child._in_child, which runs the
    autoencoder's job and the split distance sweeps, and no module imports
    multiprocessing, threading or concurrent.futures."""
    stray = []
    for name, tree in _modules().items():
        inside = set()
        for node in ast.walk(tree):
            if (name, getattr(node, "name", None)) == ("child.py",
                                                       "_in_child"):
                inside.update(ast.walk(node))
        stray += ["%s:%d os.%s" % (name, node.lineno, node.attr)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("fork", "forkpty")
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "os" and node not in inside]
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            stray += ["%s:%d import %s" % (name, node.lineno, module)
                      for module in modules
                      if module.split(".")[0] in ("multiprocessing",
                                                  "threading", "concurrent")]
    assert stray == []
