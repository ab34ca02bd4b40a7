"""Determinism rules (``DET1xx``).

Every batched kernel in this codebase is contractually bit-identical
to its per-pair twin, and checkpoints must replay to the same tree on
any machine. That dies the moment a result depends on a wall clock, an
unseeded RNG, hash-ordered iteration (``PYTHONHASHSEED`` randomizes
``str`` hashes per *process*, so set order differs between a resumed
run and the one it continues), filesystem enumeration order, or worker
scheduling. These rules flag each of those at the AST level.

All rules share one resolution layer: import aliases are tracked so
``np.random.rand`` and ``numpy.random.rand`` match the same rule, and
per-function local inference tracks which names are bound to sets or
lists (a name keeps a type only while *every* assignment in the
function agrees).

A flagged expression is allowed when an enclosing call in the same
statement is order-insensitive (``sorted``, ``len``, ``set``,
``frozenset``, ``min``, ``max``, ``any``, ``all``) — ``sorted(n for n
in os.listdir(d))`` is the fix, not a finding. ``sum`` is deliberately
*not* in that list: float addition does not commute.
"""

from __future__ import annotations

import ast

from repro.lintx.core import Finding, Rule, SourceFile, register

#: Wrapping any of these around a flagged expression makes its
#: consumption order-insensitive.
ORDER_INSENSITIVE_CALLS = frozenset(
    ("sorted", "len", "set", "frozenset", "min", "max", "any", "all")
)

#: ``random.<fn>`` calls that are fine: explicit generator construction
#: (callers seed it) and state plumbing.
_STDLIB_RANDOM_OK = frozenset(("Random", "SystemRandom", "getstate", "setstate"))

#: ``numpy.random.<fn>`` calls that are fine: constructing an explicit
#: (seedable) generator or bit generator, not drawing from the global.
_NP_RANDOM_OK = frozenset(
    (
        "default_rng",
        "Generator",
        "RandomState",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    )
)

_DIR_SCAN_CALLS = frozenset(
    ("os.listdir", "os.scandir", "os.walk", "glob.glob", "glob.iglob")
)
#: Method names distinctive enough to flag on any receiver (pathlib).
_DIR_SCAN_METHODS = frozenset(("iterdir", "rglob"))

#: Consuming a set through these materializes its arbitrary order into
#: a result.
_ORDER_MATERIALIZING_CALLS = frozenset(
    ("list", "tuple", "enumerate", "iter", "sum", "reversed")
)


def annotate_parents(tree: ast.AST) -> None:
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._lint_parent = node  # type: ignore[attr-defined]


def parent_of(node: ast.AST) -> ast.AST | None:
    return getattr(node, "_lint_parent", None)


class ImportMap:
    """Resolve names/attribute chains to dotted module paths."""

    def __init__(self, tree: ast.AST):
        self.aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else name
                    self.aliases[name] = target
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.level:
                    continue  # relative import: not a stdlib/numpy module
                for alias in node.names:
                    name = alias.asname or alias.name
                    self.aliases[name] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.expr) -> str | None:
        """Dotted path of a Name/Attribute chain, alias-expanded."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(self.aliases.get(node.id, node.id))
        return ".".join(reversed(parts))


def enclosing_statement(node: ast.AST) -> ast.AST:
    current = node
    while not isinstance(current, ast.stmt):
        up = parent_of(current)
        if up is None:
            break
        current = up
    return current


def has_order_insensitive_ancestor(
    node: ast.AST, imports: ImportMap
) -> bool:
    """True when an enclosing call (same statement) absorbs ordering."""
    current = parent_of(node)
    while current is not None and not isinstance(current, ast.stmt):
        if isinstance(current, ast.Call):
            name = imports.resolve(current.func)
            if name in ORDER_INSENSITIVE_CALLS:
                return True
        if isinstance(current, ast.Compare) and any(
            isinstance(op, (ast.In, ast.NotIn)) for op in current.ops
        ):
            return True  # membership tests are order-insensitive
        current = parent_of(current)
    return False


class LocalTypes(ast.NodeVisitor):
    """Per-scope set/list inference for simple local names.

    A name is typed only when every assignment to it in the scope
    agrees; a single disagreeing (or opaque) assignment drops it to
    unknown, so the rules under-report instead of guessing.
    """

    def __init__(self, imports: ImportMap):
        self.imports = imports
        self.kinds: dict[str, str] = {}  # name -> "set" | "list" | "?"

    def infer(self, node: ast.expr) -> str | None:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(node, (ast.List, ast.ListComp)):
            return "list"
        if isinstance(node, ast.Call):
            name = self.imports.resolve(node.func)
            if name in ("set", "frozenset"):
                return "set"
            if name == "list":
                return "list"
            if isinstance(node.func, ast.Attribute):
                method = node.func.attr
                if method in (
                    "union",
                    "intersection",
                    "difference",
                    "symmetric_difference",
                ):
                    base = self.lookup(node.func.value)
                    if base == "set":
                        return "set"
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            if "set" in (self.lookup(node.left), self.lookup(node.right)):
                return "set"
        if isinstance(node, ast.Name):
            return self.kinds.get(node.id)
        return None

    def lookup(self, node: ast.expr) -> str | None:
        return self.infer(node)

    def record(self, target: ast.expr, value: ast.expr) -> None:
        if not isinstance(target, ast.Name):
            return
        kind = self.infer(value)
        previous = self.kinds.get(target.id)
        if previous is None:
            self.kinds[target.id] = kind or "?"
        elif previous != kind:
            self.kinds[target.id] = "?"

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self.record(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.record(node.target, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Name):
            self.kinds[node.target.id] = "?"
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested scopes are analyzed on their own

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass


def scopes(tree: ast.AST):
    """Yield (scope_node, local type table) for the module and every
    function, each analyzed against its own assignments only."""
    yield tree, None
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, None


def direct_children_scope(scope: ast.AST, node: ast.AST) -> bool:
    """Is ``node`` inside ``scope`` but not inside a nested function?"""
    current = parent_of(node)
    while current is not None:
        if current is scope:
            return True
        if isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            return False
        current = parent_of(current)
    return scope is None


class _FileRule(Rule):
    """Per-file rule plumbing: parse once, annotate parents, resolve
    imports, then delegate."""

    def check_file(self, source: SourceFile) -> list[Finding]:
        if source.tree is None:
            return []
        if not getattr(source.tree, "_lint_parents_done", False):
            annotate_parents(source.tree)
            source.tree._lint_parents_done = True  # type: ignore[attr-defined]
        imports = getattr(source.tree, "_lint_imports", None)
        if imports is None:
            imports = ImportMap(source.tree)
            source.tree._lint_imports = imports  # type: ignore[attr-defined]
        return list(self.visit(source, source.tree, imports))

    def visit(self, source: SourceFile, tree: ast.AST, imports: ImportMap):
        raise NotImplementedError


@register
class WallClockRule(_FileRule):
    id = "DET101"
    severity = "error"
    summary = (
        "time.time() used where runs must replay; durations need"
        " time.perf_counter(), real timestamps need a suppression"
    )

    def visit(self, source, tree, imports):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if imports.resolve(node.func) == "time.time":
                yield self.finding(
                    source.path,
                    node.lineno,
                    node.col_offset + 1,
                    "time.time() is wall-clock (NTP steps, DST): use"
                    " time.perf_counter() for durations, or suppress"
                    " with a reason if a real timestamp is wanted",
                )


@register
class UnseededRandomRule(_FileRule):
    id = "DET102"
    severity = "error"
    summary = (
        "draw from the process-global RNG (random.*, numpy.random.*);"
        " use an explicitly seeded default_rng/Random instance"
    )

    def visit(self, source, tree, imports):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = imports.resolve(node.func)
            if name is None or "." not in name:
                continue
            module, _, attr = name.rpartition(".")
            if module == "random" and attr not in _STDLIB_RANDOM_OK:
                yield self.finding(
                    source.path,
                    node.lineno,
                    node.col_offset + 1,
                    f"random.{attr}() draws from the process-global RNG"
                    " (call-order dependent): pass an explicitly seeded"
                    " random.Random(seed) instance instead",
                )
            elif module == "numpy.random" and attr not in _NP_RANDOM_OK:
                yield self.finding(
                    source.path,
                    node.lineno,
                    node.col_offset + 1,
                    f"numpy.random.{attr}() uses the global numpy RNG"
                    " (call-order dependent): draw from an explicitly"
                    " seeded numpy.random.default_rng(seed)",
                )


@register
class SetIterationRule(_FileRule):
    id = "DET103"
    severity = "error"
    summary = (
        "iteration/materialization of a set in arbitrary hash order;"
        " wrap in sorted(...) (str hashes differ per process)"
    )

    _MESSAGE = (
        "set order is arbitrary and differs across processes"
        " (PYTHONHASHSEED): wrap in sorted(...) before it can reach a"
        " result, or consume it order-insensitively"
    )

    def visit(self, source, tree, imports):
        for scope, _ in scopes(tree):
            types = LocalTypes(imports)
            body = scope.body if hasattr(scope, "body") else []
            for stmt in body:
                types.visit(stmt)
            yield from self._check_scope(source, scope, types, imports)

    def _is_set(self, types: LocalTypes, node: ast.expr) -> bool:
        return types.infer(node) == "set"

    def _check_scope(self, source, scope, types, imports):
        for node in ast.walk(scope):
            if not direct_children_scope(scope, node):
                continue
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if self._is_set(types, node.iter):
                    yield self._finding(source, node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for gen in node.generators:
                    if self._is_set(types, gen.iter) and not (
                        has_order_insensitive_ancestor(node, imports)
                        or isinstance(node, ast.SetComp)
                    ):
                        yield self._finding(source, gen.iter)
            elif isinstance(node, ast.Call):
                name = imports.resolve(node.func)
                consumes = name in _ORDER_MATERIALIZING_CALLS or (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                )
                if not consumes:
                    continue
                for arg in node.args[:1]:
                    if self._is_set(types, arg) and not has_order_insensitive_ancestor(
                        node, imports
                    ):
                        yield self._finding(source, arg)
            elif isinstance(node, ast.FormattedValue):
                if self._is_set(types, node.value):
                    yield self._finding(source, node.value)

    def _finding(self, source, node):
        return self.finding(
            source.path, node.lineno, node.col_offset + 1, self._MESSAGE
        )


@register
class DirScanRule(_FileRule):
    id = "DET104"
    severity = "error"
    summary = (
        "filesystem enumeration (os.listdir/glob/iterdir) in directory"
        " order; wrap in sorted(...)"
    )

    def visit(self, source, tree, imports):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = imports.resolve(node.func)
            is_scan = name in _DIR_SCAN_CALLS
            if not is_scan and isinstance(node.func, ast.Attribute):
                method = node.func.attr
                if method in _DIR_SCAN_METHODS:
                    is_scan = True
                elif method == "glob" and not isinstance(
                    node.func.value, ast.Name
                ):
                    is_scan = True  # chained Path(...).glob(...)
                elif method == "glob" and isinstance(node.func.value, ast.Name):
                    # p.glob(...) where p is not the glob module itself
                    base = imports.resolve(node.func.value)
                    is_scan = base != "glob"
            if not is_scan:
                continue
            if has_order_insensitive_ancestor(node, imports):
                continue
            yield self.finding(
                source.path,
                node.lineno,
                node.col_offset + 1,
                f"{name or node.func.attr} enumerates the filesystem in"
                " directory order (differs across machines/filesystems):"
                " wrap in sorted(...)",
            )


@register
class GatherOrderRule(_FileRule):
    id = "DET105"
    severity = "error"
    summary = (
        "completion-ordered gather (as_completed/imap_unordered);"
        " results must be gathered in submission order"
    )

    def visit(self, source, tree, imports):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = imports.resolve(node.func) or ""
            attr = name.rpartition(".")[2]
            if attr in ("as_completed", "imap_unordered"):
                yield self.finding(
                    source.path,
                    node.lineno,
                    node.col_offset + 1,
                    f"{attr}() yields results in completion order, which"
                    " depends on worker scheduling; gather futures in"
                    " submission order so float accumulation and id"
                    " assignment replay",
                )


@register
class ArbitraryRemovalRule(_FileRule):
    id = "DET106"
    severity = "error"
    summary = (
        "arbitrary/equality-ambiguous element removal (set.pop,"
        " dict.popitem, next(iter(set)), list.remove of a computed key)"
    )

    def visit(self, source, tree, imports):
        for scope, _ in scopes(tree):
            types = LocalTypes(imports)
            for stmt in scope.body if hasattr(scope, "body") else []:
                types.visit(stmt)
            for node in ast.walk(scope):
                if not direct_children_scope(scope, node):
                    continue
                if not isinstance(node, ast.Call):
                    continue
                yield from self._check_call(source, node, types, imports)

    def _check_call(self, source, node: ast.Call, types, imports):
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr == "pop" and not node.args:
                if types.infer(func.value) == "set":
                    yield self.finding(
                        source.path,
                        node.lineno,
                        node.col_offset + 1,
                        "set.pop() removes a hash-order-arbitrary"
                        " element: pop from a sorted list instead",
                    )
            elif func.attr == "popitem":
                yield self.finding(
                    source.path,
                    node.lineno,
                    node.col_offset + 1,
                    "dict.popitem() couples results to insertion order;"
                    " pop an explicit key instead",
                )
            elif func.attr == "remove" and node.args:
                arg = node.args[0]
                computed = not isinstance(arg, (ast.Name, ast.Attribute))
                if computed and types.infer(func.value) == "list":
                    yield self.finding(
                        source.path,
                        node.lineno,
                        node.col_offset + 1,
                        "list.remove(<computed value>) deletes the first"
                        " ==-equal element, which under float ties may"
                        " not be the intended one (the PR 2 seed-removal"
                        " bug): locate the element by identity/index",
                    )
        elif (
            imports.resolve(func) == "next"
            and node.args
            and isinstance(node.args[0], ast.Call)
        ):
            inner = node.args[0]
            if (
                imports.resolve(inner.func) == "iter"
                and inner.args
                and types.infer(inner.args[0]) == "set"
            ):
                yield self.finding(
                    source.path,
                    node.lineno,
                    node.col_offset + 1,
                    "next(iter(<set>)) picks a hash-order-arbitrary"
                    " element: use min/max or sorted(...)[0]",
                )
