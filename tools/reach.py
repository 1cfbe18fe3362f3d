"""Reachability ledger: what in ``src/repro`` no run reaches, and why it stays.

Standard library only; nothing under ``src/`` imports this file.  It has two
halves.

The **collector** records, per process, every function under ``src/repro``
that is called (a ``sys.setprofile`` / ``threading.setprofile`` hook keyed
by code object) and every option each ``argparse`` parser is given.  It
starts in three ways:

* as a pytest plugin, ``PYTHONPATH=src:tools python -m pytest -p reach``;
* in every Python process whose environment has ``REACH_DIR`` set and
  ``tools/reach_site`` on ``PYTHONPATH`` (its ``sitecustomize`` starts it),
  so CLI subprocesses, ``serve``, ``worker`` and process-pool children are
  covered; the plugin exports both to the processes the tests start;
* ``python tools/reach.py run DIR -- COMMAND...`` runs one command that way.

Each process writes ``reach-<pid>-<ns>.json`` into ``$REACH_DIR`` (default
``.reach`` under the repository) when it exits: at ``atexit``, on
``SIGTERM``, or, in a ``multiprocessing`` child (which leaves through
``os._exit`` after clearing the finalizers it inherited), from a finalizer
registered after the fork.

The **static pass** lists what could be reached: every ``def`` under
``src/repro``, every name in a package ``__all__`` (reached when some file of
the repository imports it through that package), every registered kind
(adversaries, strategy components, row exporters, base configs; reached when
its factory ran), every CLI option (reached when passed to its parser, or to
a parser with the identical option), every defaulted parameter of a
``def`` (reached when some call in the repository passes it by keyword,
positionally, or through ``*``/``**``), and every ``ProtocolConfig`` /
``SimulationConfig`` field (reached when some attribute access under
``src/repro`` reads it; a field nothing reads is an inert parameter).

``python tools/reach.py report DIR...`` prints what none of the collected
runs reached, with the ledger's reason beside each entry, and ``check DIR``
exits 1 when an unreached entry has no line in ``tools/unreached.txt`` or a
ledger line is reached (or names nothing).  Ledger lines are
``<entry>  # <reason>``.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import json
import os
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

TOOLS = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(TOOLS)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
SITE = os.path.join(TOOLS, "reach_site")
LEDGER = os.path.join(TOOLS, "unreached.txt")
ENV = "REACH_DIR"
#: Python files searched for imports through a package and for call sites.
CORPUS = ("src", "tests", "examples", "perf", "benchmarks", "setup.py")

# -- the collector ---------------------------------------------------------------------


class Collector:
    """Called code objects and parsed CLI options of this process."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.codes: Set[object] = set()
        self.flags: Set[Tuple[str, str]] = set()

    def start(self) -> None:
        add = self.codes.add

        def profile(frame, event, arg):
            if event == "call":
                add(frame.f_code)

        sys.setprofile(profile)
        threading.setprofile(profile)
        self._watch_argparse()
        atexit.register(self.dump)
        if signal.getsignal(signal.SIGTERM) is signal.SIG_DFL:
            signal.signal(signal.SIGTERM, self._on_sigterm)
        os.register_at_fork(after_in_child=self._forget)
        import multiprocessing.util

        multiprocessing.util.register_after_fork(self, Collector._arm_child)

    def _watch_argparse(self) -> None:
        parse = argparse.ArgumentParser.parse_known_args
        flags = self.flags

        def parse_known_args(parser, args=None, namespace=None):
            for token in sys.argv[1:] if args is None else args:
                if isinstance(token, str) and token.startswith("-"):
                    action = parser._option_string_actions.get(token.split("=", 1)[0])
                    if action is not None:
                        flags.add((parser.prog, option_name(action)))
            return parse(parser, args, namespace)

        argparse.ArgumentParser.parse_known_args = parse_known_args

    def _forget(self) -> None:
        # A forked child starts with its parent's records; the parent dumps those.
        self.codes.clear()
        self.flags.clear()

    def _arm_child(self) -> None:
        import multiprocessing.util

        multiprocessing.util.Finalize(self, self.dump, exitpriority=100)

    def _on_sigterm(self, signum, frame) -> None:
        self.dump()
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    def dump(self) -> None:
        functions = []
        for code in list(self.codes):
            path = os.path.realpath(code.co_filename)
            if path.startswith(PACKAGE + os.sep):
                name = getattr(code, "co_qualname", code.co_name)
                functions.append([os.path.relpath(path, SRC), code.co_firstlineno, name])
        if not functions and not self.flags:
            return
        os.makedirs(self.out_dir, exist_ok=True)
        filename = "reach-%d-%d.json" % (os.getpid(), time.monotonic_ns())
        with open(os.path.join(self.out_dir, filename), "w", encoding="utf-8") as handle:
            json.dump(
                {"argv": sys.argv, "functions": functions, "flags": sorted(self.flags)},
                handle,
            )
        self.codes.clear()
        self.flags.clear()


_collector: Optional[Collector] = None


def start(out_dir: str) -> Collector:
    """Start recording this process into ``out_dir`` (once per process)."""
    global _collector
    if _collector is None:
        _collector = Collector(os.path.abspath(out_dir))
        _collector.start()
    return _collector


def child_environment(out_dir: str) -> Dict[str, str]:
    """This environment, with the collector on for every Python it starts."""
    env = dict(os.environ)
    env[ENV] = os.path.abspath(out_dir)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SITE + (os.pathsep + path if path else "")
    return env


def pytest_load_initial_conftests(early_config, parser, args) -> None:
    """pytest plugin hook: collect from before the first conftest import."""
    out_dir = os.environ.get(ENV) or os.path.join(ROOT, ".reach")
    os.environ.update(child_environment(out_dir))
    start(out_dir)


def option_name(action: argparse.Action) -> str:
    return max(action.option_strings, key=len)


# -- what the runs reached -------------------------------------------------------------


def load_runs(dirs: Iterable[str]) -> Tuple[Set[Tuple[str, int]], Set[Tuple[str, str]]]:
    """(relpath, first line) of every called function, and (prog, option) pairs."""
    functions: Set[Tuple[str, int]] = set()
    flags: Set[Tuple[str, str]] = set()
    for directory in dirs:
        for name in sorted(os.listdir(directory)):
            if not (name.startswith("reach-") and name.endswith(".json")):
                continue
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                data = json.load(handle)
            functions.update((path, line) for path, line, _ in data["functions"])
            flags.update((prog, option) for prog, option in data["flags"])
    return functions, flags


# -- the static pass -------------------------------------------------------------------


class Definition:
    """One ``def`` under ``src/repro``."""

    __slots__ = ("path", "line", "module", "qualname", "lines", "node", "parent")

    def __init__(self, path, line, module, qualname, lines, node, parent) -> None:
        self.path = path
        self.line = line
        self.module = module
        self.qualname = qualname
        self.lines = lines
        self.node = node
        self.parent = parent

    @property
    def name(self) -> str:
        return "%s.%s" % (self.module, self.qualname)


def python_files(*roots: str) -> Iterator[str]:
    for root in roots:
        path = os.path.join(ROOT, root)
        if os.path.isfile(path):
            yield path
            continue
        for directory, subdirs, files in os.walk(path):
            subdirs[:] = sorted(d for d in subdirs if not d.startswith("."))
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(directory, name)


def module_name(path: str) -> str:
    relative = os.path.relpath(path, SRC)[: -len(".py")].split(os.sep)
    if relative[-1] == "__init__":
        relative.pop()
    return ".".join(relative)


def parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), path)


def definitions() -> List[Definition]:
    found: List[Definition] = []

    def visit(node, path, module, prefix, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, module, prefix + child.name + ".", parent)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A code object's first line is its first decorator's.
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                qualname = prefix + child.name
                definition = Definition(
                    os.path.relpath(path, SRC), first, module, qualname,
                    child.end_lineno - first + 1, child, parent,
                )
                found.append(definition)
                visit(child, path, module, qualname + ".<locals>.", definition)
            else:
                visit(child, path, module, prefix, parent)

    for path in python_files("src/repro"):
        visit(parse(path), path, module_name(path), "", None)
    return found


def resolve_from(node: ast.ImportFrom, module: str, is_package: bool) -> str:
    if not node.level or not module:
        return node.module or ""
    parts = module.split(".")
    base = parts if is_package else parts[:-1]
    base = base[: len(base) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def package_uses(packages: Set[str]) -> Set[Tuple[str, str]]:
    """(package, name) for every name some file imports through a package."""
    used: Set[Tuple[str, str]] = set()
    for path in python_files(*CORPUS):
        tree = parse(path)
        inside = path.startswith(PACKAGE + os.sep)
        module = module_name(path) if inside else ""
        is_package = path.endswith("__init__.py")
        aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = resolve_from(node, module, is_package)
                for alias in node.names:
                    full = "%s.%s" % (source, alias.name)
                    if source in packages:
                        used.add((source, alias.name))
                    if full in packages:
                        aliases[alias.asname or alias.name] = full
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname and alias.name in packages:
                        aliases[alias.asname] = alias.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                chain = dotted(node.value)
                if chain is None:
                    continue
                head, _, rest = chain.partition(".")
                target = aliases.get(head, head) + ("." + rest if rest else "")
                if target in packages:
                    used.add((target, node.attr))
    return used


def dotted(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = dotted(node.value)
        return None if head is None else head + "." + node.attr
    return None


def exports() -> Dict[str, List[str]]:
    """package -> its literal ``__all__``."""
    found: Dict[str, List[str]] = {}
    for path in python_files("src/repro"):
        if not path.endswith("__init__.py"):
            continue
        for node in parse(path).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                found[module_name(path)] = list(ast.literal_eval(node.value))
    return found


def registered_kinds() -> Dict[str, object]:
    """``<registry>:<kind>`` -> the function or class that builds it."""
    import repro.experiments  # noqa: F401  (registers the row exporters)
    from repro.adversary.components import COMPONENT_REGISTRIES
    from repro.api.registry import DEFAULT_REGISTRY
    from repro.api.resultset import ROW_EXPORTERS
    from repro.api.scenario import BASE_CONFIGS

    kinds: Dict[str, object] = {}
    for category, registry in COMPONENT_REGISTRIES.items():
        for cls in registry:
            kinds["%s:%s" % (category, cls.kind)] = cls
    for entry in DEFAULT_REGISTRY:
        kinds["adversary:%s" % entry.name] = entry.builder
    for name, exporter in ROW_EXPORTERS.items():
        kinds["rows:%s" % name] = exporter
    for name, factory in BASE_CONFIGS.items():
        kinds["base:%s" % name] = factory
    return kinds


def code_lines(factory: object) -> List[Tuple[str, int]]:
    """(relpath, first line) of a function, or of every method a class defines."""
    functions = vars(factory).values() if isinstance(factory, type) else [factory]
    codes = [f.__code__ for f in functions if hasattr(f, "__code__")]
    return [
        (os.path.relpath(os.path.realpath(code.co_filename), SRC), code.co_firstlineno)
        for code in codes
    ]


def cli_options() -> Dict[Tuple[str, str], tuple]:
    """(parser prog, option) -> the option's definition, for every CLI parser."""
    from repro.cli import build_parser

    options: Dict[Tuple[str, str], tuple] = {}
    pending = [build_parser()]
    while pending:
        parser = pending.pop()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                pending.extend(action.choices.values())
            elif action.option_strings and not isinstance(action, argparse._HelpAction):
                definition = (
                    tuple(action.option_strings), action.dest, repr(action.type),
                    repr(action.default), action.help, action.nargs,
                )
                options[(parser.prog, option_name(action))] = definition
    return options


def config_fields() -> List[Tuple[str, str]]:
    """(class, field) for every field of the two config dataclasses."""
    import dataclasses

    from repro.config import ProtocolConfig, SimulationConfig

    return [
        ("%s.%s" % (cls.__module__, cls.__qualname__), spec.name)
        for cls in (ProtocolConfig, SimulationConfig)
        for spec in dataclasses.fields(cls)
    ]


def read_attributes() -> Set[str]:
    """Every attribute name some expression under ``src/repro`` reads."""
    return {
        node.attr
        for path in python_files("src/repro")
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def passed_parameters(defs: List[Definition]) -> Set[Tuple[str, str]]:
    """(function, parameter) for every parameter some call in the repository
    may pass, judged by name: any keyword argument of that name, or a call of
    a function of that name (a class name for ``__init__``, or ``__init__``)
    with enough positional arguments or a ``*``/``**`` spread."""
    keywords: Set[str] = set()
    calls: Dict[str, List[ast.Call]] = {}
    for path in python_files(*CORPUS):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Call):
                callee = node.func
                name = callee.attr if isinstance(callee, ast.Attribute) else None
                calls.setdefault(name or getattr(callee, "id", None), []).append(node)
                keywords.update(k.arg for k in node.keywords if k.arg)
    passed: Set[Tuple[str, str]] = set()
    for definition in defs:
        args = definition.node.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        if positional[:1] in (["self"], ["cls"]):
            positional = positional[1:]
        names = definition.qualname.split(".")
        sites = calls.get(names[-1], [])
        if names[-1] == "__init__" and len(names) > 1:
            sites = sites + calls.get(names[-2], [])
        for site in sites:
            spread = any(isinstance(a, ast.Starred) for a in site.args) or any(
                k.arg is None for k in site.keywords
            )
            reach = len(positional) if spread else len(site.args)
            passed.update((definition.name, p) for p in positional[:reach])
        for parameter in positional + [a.arg for a in args.kwonlyargs]:
            if parameter in keywords:
                passed.add((definition.name, parameter))
    return passed


def defaulted(definition: Definition) -> List[str]:
    args = definition.node.args
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return names


# -- the ledger ------------------------------------------------------------------------


def unreached(dirs: Iterable[str]) -> Dict[str, int]:
    """Every unreached entry -> the lines it spans (0 for non-functions)."""
    called, flags = load_runs(dirs)
    defs = definitions()
    entries: Dict[str, int] = {}
    dead: Set[Definition] = set()
    for definition in defs:
        if (definition.path, definition.line) in called:
            continue
        dead.add(definition)
        # A def nested in an unreached one is implied by its parent's entry.
        if definition.parent not in dead:
            entries["func " + definition.name] = definition.lines
    sys.path.insert(0, SRC)
    packages = exports()
    used = package_uses(set(packages))
    for package, names in packages.items():
        for name in names:
            if (package, name) not in used:
                entries["export %s.%s" % (package, name)] = 0
    for kind, factory in registered_kinds().items():
        if not any(line in called for line in code_lines(factory)):
            entries["kind " + kind] = 0
    # Parsers that share one option definition (a helper adds it) share an entry.
    sharing: Dict[tuple, List[str]] = {}
    for (prog, option), definition in cli_options().items():
        sharing.setdefault((option, definition), []).append(prog)
    for (option, _), progs in sharing.items():
        if not any((prog, option) in flags for prog in progs):
            commands = "|".join(sorted(prog.split(" ", 1)[1] for prog in progs))
            entries["flag %s %s" % (commands, option)] = 0
    passed = passed_parameters(defs)
    for definition in defs:
        # CLI handlers take argparse namespaces; their options are flag entries.
        if definition in dead or definition.module == "repro.cli":
            continue
        for parameter in defaulted(definition):
            if (definition.name, parameter) not in passed:
                entries["param %s(%s)" % (definition.name, parameter)] = 0
    read = read_attributes()
    for owner, name in config_fields():
        if name not in read:
            entries["field %s.%s" % (owner, name)] = 0
    return entries


def read_ledger(path: str = LEDGER) -> Dict[str, str]:
    ledger: Dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line and not line.startswith("#"):
                entry, _, reason = line.partition(" # ")
                ledger[entry.strip()] = reason.strip()
    return ledger


def report(dirs: List[str]) -> int:
    entries = unreached(dirs)
    ledger = read_ledger() if os.path.exists(LEDGER) else {}
    for entry in sorted(entries):
        lines = " (%d lines)" % entries[entry] if entries[entry] else ""
        print("%s%s  # %s" % (entry, lines, ledger.get(entry, "?")))
    functions = [n for e, n in entries.items() if e.startswith("func ")]
    print(
        "# %d unreached functions (%d lines), %d other entries"
        % (len(functions), sum(functions), len(entries) - len(functions)),
        file=sys.stderr,
    )
    return 0


def check(dirs: List[str]) -> int:
    entries = unreached(dirs)
    ledger = read_ledger()
    missing = sorted(set(entries) - set(ledger))
    stale = sorted(set(ledger) - set(entries))
    for entry in missing:
        print("unreached, not in the ledger: %s" % entry)
    for entry in stale:
        print("in the ledger, but reached or gone: %s" % entry)
    print("%d ledger entries, %d unreached, %d missing, %d stale"
          % (len(ledger), len(entries), len(missing), len(stale)))
    return 1 if missing or stale else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="reach", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run a command under the collector")
    run_parser.add_argument("dir")
    run_parser.add_argument("argv", nargs=argparse.REMAINDER)
    for name in ("report", "check"):
        sub.add_parser(name).add_argument("dirs", nargs="+")
    args = parser.parse_args(argv)
    if args.command == "run":
        command = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        return subprocess.call(command, env=child_environment(args.dir))
    return (report if args.command == "report" else check)(args.dirs)


if __name__ == "__main__":
    sys.exit(main())
