"""Static checks over src/telanom with the stdlib ast module: no unused
import, no module-level private function that nothing in the package
references (a retired helper must go with its last caller), no JSON
written outside the package's two JSON writers, no CSV written outside
its one CSV writer, no file opened outside the one opener of input files
and the one that renames an output into place whole, and no process
forked or thread started outside the one class that runs work in a child
process, which only child.run_all uses."""

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


def _opener(call):
    """The name of the function a call calls, bare or as an attribute."""
    func = call.func
    return (func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None)


def _write_mode(call):
    """The mode of an ``open``/``os.fdopen`` call if it may write (w, a, x
    or +), "?" where it is not a string literal, else None."""
    args = call.args[1:2] + [k.value for k in call.keywords
                             if k.arg == "mode"]
    if not args:
        return None
    if not (isinstance(args[0], ast.Constant)
            and isinstance(args[0].value, str)):
        return "?"
    return args[0].value if set(args[0].value) & set("wax+") else None


def test_files_are_opened_for_writing_only_by_whole_file():
    """Every open, io.open or os.fdopen call with a writing mode sits in
    errors.whole_file, so each file is renamed into place whole; the one
    exception is child.py's os.fdopen of the pipe to the parent."""
    # (module, function): the one opener it may call with a writing mode
    exempt = {("errors.py", "whole_file"): "open",
              ("child.py", "_send_outcomes"): "fdopen"}
    stray = []
    for name, tree in _modules().items():
        allowed = {}
        for node in ast.walk(tree):
            if (name, getattr(node, "name", None)) in exempt:
                allowed.update(dict.fromkeys(
                    ast.walk(node), exempt[name, node.name]))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            opener = _opener(node)
            if (opener in ("open", "fdopen") and _write_mode(node)
                    and allowed.get(node) != opener):
                stray.append("%s:%d %s(..., %r)" % (
                    name, node.lineno, opener, _write_mode(node)))
            elif opener in ("write_text", "write_bytes"):
                stray.append("%s:%d %s" % (name, node.lineno, opener))
    assert stray == []


def test_files_are_opened_only_by_read_file_and_whole_file():
    """Every open, io.open (or any other ``.open``) and os.fdopen call sits
    in errors.read_file, the opener of every input file, or in
    errors.whole_file, the opener of every output; the one exception is
    child.py's os.fdopen of the pipe to the parent."""
    exempt = {("errors.py", "read_file"): "open",
              ("errors.py", "whole_file"): "open",
              ("child.py", "_send_outcomes"): "fdopen"}
    stray = []
    for name, tree in _modules().items():
        allowed = {}
        for node in ast.walk(tree):
            if (name, getattr(node, "name", None)) in exempt:
                allowed.update(dict.fromkeys(
                    ast.walk(node), exempt[name, node.name]))
        stray += ["%s:%d %s" % (name, node.lineno, _opener(node))
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and _opener(node) in ("open", "fdopen")
                  and allowed.get(node) != _opener(node)]
    assert stray == []


def test_fork_is_called_only_by_in_child():
    """os.fork appears only inside child._in_child, which no module but
    child.py names: every job that runs in a child (distance sweep ranges,
    file writers, grid fits and the autoencoder's job) goes through
    child.run_all. No module imports multiprocessing, threading or
    concurrent.futures."""
    stray = []
    for name, tree in _modules().items():
        if name != "child.py":
            stray += ["%s:%d _in_child" % (name, node.lineno)
                      for node in ast.walk(tree)
                      if "_in_child" in (getattr(node, "id", None),
                                         getattr(node, "attr", None))
                      or isinstance(node, ast.ImportFrom) and "_in_child"
                      in [alias.name for alias in node.names]]
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
