"""reprolint rules R001–R006.

Each rule guards one clause of the simulator's byte-identity /
determinism contract (DESIGN.md §6).  Rules are AST-based and
deliberately conservative: they flag patterns they can *prove* from the
single file under analysis, and every finding can be silenced with an
inline ``# reprolint: disable=<CODE>`` comment when a human has audited
the site.
"""

from __future__ import annotations

import abc
import ast
from collections.abc import Iterator

from repro.lint.engine import FileContext, Violation

#: Zones that make up the simulated world: code here must be a pure
#: function of (config, trace, seed) — no wall clock, no ambient state.
SIMULATED_ZONES = frozenset({"core", "flash", "baselines", "workloads"})


def _qualname_map(tree: ast.Module) -> dict[str, str]:
    """Map local names to dotted origins from the module's imports.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from time import perf_counter as pc`` -> ``{"pc": "time.perf_counter"}``.
    """
    mapping: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                mapping[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                mapping[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return mapping


def _resolve(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """Resolve a Name/Attribute chain to a dotted qualname, or None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = aliases.get(node.id)
    if root is None:
        # An un-imported bare name still resolves to itself so rules can
        # match builtins (``set``, ``list``) and local references.
        root = node.id
    parts.append(root)
    return ".".join(reversed(parts))


class Rule(abc.ABC):
    """One reprolint check.  Subclasses set ``code``/``name``/``zones``."""

    #: Stable rule code used in output and suppression comments.
    code: str = "R000"
    #: Short human name for ``--list-rules``.
    name: str = "rule"
    #: Zones the rule applies to; ``None`` means every scanned file.
    zones: frozenset[str] | None = None

    def applies(self, ctx: FileContext) -> bool:
        return self.zones is None or ctx.zone in self.zones

    @abc.abstractmethod
    def check(self, ctx: FileContext) -> Iterator[Violation]:
        """Yield violations found in ``ctx``."""

    def violation(self, ctx: FileContext, node: ast.AST, message: str) -> Violation:
        return Violation(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
        )


class WallClockRule(Rule):
    """R001: no wall-clock reads inside the simulated world.

    The simulators advance a *simulated* clock (``now_us``); reading the
    host's clock (``time.time``, ``perf_counter``, ``datetime.now``, …)
    inside core/flash/baselines/workloads makes replay output depend on
    the machine and run, breaking byte-identity.  The harness and CLI
    (wall-time reporting, progress lines) are allowlisted by zone.
    """

    code = "R001"
    name = "wall-clock-in-simulation"
    zones = SIMULATED_ZONES

    BANNED = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.process_time",
            "time.process_time_ns",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        aliases = _qualname_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            qual = _resolve(node, aliases)
            if qual in self.BANNED:
                yield self.violation(
                    ctx,
                    node,
                    f"wall-clock read `{qual}` in simulated zone "
                    f"'{ctx.zone}' (use the simulated `now_us` clock)",
                )


class UnseededRandomRule(Rule):
    """R002: no unseeded or global-state randomness anywhere in the repo.

    Module-level ``random.*`` functions and ``numpy.random.*`` legacy
    functions draw from hidden global state that any import or earlier
    call can perturb — replay output would depend on execution history.
    A stream constructed without a seed (``random.Random()``,
    ``default_rng()``, ``RandomState()``) and the OS-entropy sources
    (``random.SystemRandom``, ``os.urandom``, ``uuid.uuid1``/``uuid4``,
    ``secrets.*``) differ on every run outright.  All randomness must
    flow through seeded ``numpy.random.Generator`` (via
    ``default_rng(seed)``) or ``random.Random(seed)`` instances threaded
    from config.
    """

    code = "R002"
    name = "unseeded-randomness"
    zones = None  # everywhere: an unseeded test is a flaky test

    #: random-module functions backed by the hidden global Mersenne state.
    BANNED_RANDOM = frozenset(
        {
            "random",
            "uniform",
            "randint",
            "randrange",
            "choice",
            "choices",
            "sample",
            "shuffle",
            "seed",
            "getrandbits",
            "randbytes",
            "gauss",
            "normalvariate",
            "lognormvariate",
            "expovariate",
            "vonmisesvariate",
            "gammavariate",
            "betavariate",
            "paretovariate",
            "weibullvariate",
            "triangular",
            "binomialvariate",
        }
    )
    #: numpy.random attributes that are fine: seeded-generator entry
    #: points and the generator/bit-generator classes themselves.
    ALLOWED_NUMPY = frozenset(
        {
            "default_rng",
            "Generator",
            "BitGenerator",
            "SeedSequence",
            "PCG64",
            "PCG64DXSM",
            "Philox",
            "SFC64",
            "MT19937",
            "RandomState",  # legacy but instance-based; unseeded calls are flagged
        }
    )
    #: Stream constructors that seed themselves from OS entropy when
    #: called with no arguments.
    SEEDABLE_CONSTRUCTORS = frozenset(
        {"random.Random", "numpy.random.default_rng", "numpy.random.RandomState"}
    )
    #: Nondeterministic however they are called (as is all of ``secrets``).
    OS_ENTROPY = frozenset(
        {"random.SystemRandom", "os.urandom", "uuid.uuid1", "uuid.uuid4"}
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        aliases = _qualname_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                qual = _resolve(node.func, aliases)
                if (
                    qual in self.SEEDABLE_CONSTRUCTORS
                    and not node.args
                    and not node.keywords
                ):
                    yield self.violation(
                        ctx,
                        node,
                        f"`{qual}()` without a seed draws OS entropy (pass a "
                        "seed threaded from config)",
                    )
                continue
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            qual = _resolve(node, aliases)
            if qual is None or "." not in qual:
                continue
            prefix, attr = qual.rsplit(".", 1)
            if qual in self.OS_ENTROPY or prefix == "secrets":
                yield self.violation(
                    ctx,
                    node,
                    f"OS-entropy source `{qual}` differs on every run (use a "
                    "seeded `random.Random(seed)` instance)",
                )
            elif prefix == "random" and attr in self.BANNED_RANDOM:
                yield self.violation(
                    ctx,
                    node,
                    f"global-state randomness `{qual}` (use a seeded "
                    "`random.Random(seed)` instance)",
                )
            elif prefix == "numpy.random" and attr not in self.ALLOWED_NUMPY:
                yield self.violation(
                    ctx,
                    node,
                    f"legacy global-state randomness `{qual}` (use "
                    "`numpy.random.default_rng(seed)`)",
                )


class SetOrderRule(Rule):
    """R003: no iteration-order dependence on sets in core/flash.

    CPython set iteration order depends on insertion/deletion history
    and hash seeding of the element values — feeding it into an
    ordering-sensitive sink (a ``for`` loop that mutates stats, a
    ``list(...)``/``tuple(...)`` materialisation, a list comprehension)
    makes GC-victim selection and accounting order run-dependent.
    Order-insensitive reductions (``sorted``, ``min``, ``max``, ``sum``,
    ``len``, ``any``, ``all``, membership tests) are fine.
    """

    code = "R003"
    name = "set-iteration-order"
    zones = frozenset({"core", "flash", "cluster"})

    ORDER_SENSITIVE_CALLS = frozenset({"list", "tuple", "enumerate"})
    SET_CONSTRUCTORS = frozenset({"set", "frozenset"})
    SET_ANNOTATIONS = frozenset({"set", "frozenset", "Set", "FrozenSet", "AbstractSet"})

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        aliases = _qualname_map(ctx.tree)
        set_attrs = self._collect_set_attrs(ctx.tree, aliases)
        for scope in self._iter_scopes(ctx.tree):
            yield from self._check_scope(ctx, scope, aliases, set_attrs)

    # -- scope machinery ------------------------------------------------
    _SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

    def _iter_scopes(self, tree: ast.Module) -> Iterator[ast.AST]:
        """Yield the module plus every function/method as its own scope."""
        yield tree
        for node in ast.walk(tree):
            if isinstance(node, self._SCOPE_NODES):
                yield node

    def _walk_scope(self, scope: ast.AST) -> Iterator[ast.AST]:
        """Walk ``scope`` without descending into nested scopes/classes."""
        stack: list[ast.AST] = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (*self._SCOPE_NODES, ast.ClassDef, ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))

    def _check_scope(
        self,
        ctx: FileContext,
        scope: ast.AST,
        aliases: dict[str, str],
        set_attrs: set[str],
    ) -> Iterator[Violation]:
        local = self._local_set_names(scope, aliases)

        def is_setish(expr: ast.expr) -> bool:
            if isinstance(expr, (ast.Set, ast.SetComp)):
                return True
            if isinstance(expr, ast.Call):
                qual = _resolve(expr.func, aliases)
                if qual in self.SET_CONSTRUCTORS:
                    return True
                # ``a.union(b)`` etc. on a known set yields a set.
                if isinstance(expr.func, ast.Attribute) and expr.func.attr in {
                    "union",
                    "intersection",
                    "difference",
                    "symmetric_difference",
                }:
                    return is_setish(expr.func.value)
            if isinstance(expr, ast.Name):
                return expr.id in local
            if isinstance(expr, ast.Attribute):
                return expr.attr in set_attrs
            return False

        for node in self._walk_scope(scope):
            if isinstance(node, (ast.For, ast.AsyncFor)) and is_setish(node.iter):
                yield self.violation(
                    ctx,
                    node.iter,
                    "direct loop over a set: iteration order is "
                    "run-dependent (wrap in sorted(...))",
                )
            elif isinstance(node, ast.ListComp):
                for gen in node.generators:
                    if is_setish(gen.iter):
                        yield self.violation(
                            ctx,
                            gen.iter,
                            "list comprehension over a set captures "
                            "run-dependent order (wrap in sorted(...))",
                        )
            elif isinstance(node, ast.Call):
                qual = _resolve(node.func, aliases)
                if (
                    qual in self.ORDER_SENSITIVE_CALLS
                    and node.args
                    and is_setish(node.args[0])
                ):
                    yield self.violation(
                        ctx,
                        node,
                        f"`{qual}(...)` materialises a set in run-dependent "
                        "order (use sorted(...))",
                    )

    # -- name collection ------------------------------------------------
    def _annotation_is_set(
        self, annotation: ast.expr, aliases: dict[str, str]
    ) -> bool:
        # Handles ``set``, ``set[int]``, ``frozenset[int]``,
        # ``typing.Set[int]`` and string annotations of the same.
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            base = annotation.value.split("[", 1)[0].strip()
            return base.rsplit(".", 1)[-1] in self.SET_ANNOTATIONS
        if isinstance(annotation, ast.Subscript):
            annotation = annotation.value
        qual = _resolve(annotation, aliases)
        if qual is None:
            return False
        return qual.rsplit(".", 1)[-1] in self.SET_ANNOTATIONS

    def _value_is_set(
        self, value: ast.expr | None, aliases: dict[str, str]
    ) -> bool:
        if value is None:
            return False
        if isinstance(value, (ast.Set, ast.SetComp)):
            return True
        if isinstance(value, ast.Call):
            return _resolve(value.func, aliases) in self.SET_CONSTRUCTORS
        return False

    def _local_set_names(
        self, scope: ast.AST, aliases: dict[str, str]
    ) -> set[str]:
        """Names bound to sets *within this scope* (args + assignments)."""
        names: set[str] = set()
        if isinstance(scope, self._SCOPE_NODES):
            for arg in [
                *scope.args.posonlyargs,
                *scope.args.args,
                *scope.args.kwonlyargs,
            ]:
                if arg.annotation is not None and self._annotation_is_set(
                    arg.annotation, aliases
                ):
                    names.add(arg.arg)
        for node in self._walk_scope(scope):
            if isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                if self._annotation_is_set(node.annotation, aliases):
                    names.add(node.target.id)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and self._value_is_set(
                        node.value, aliases
                    ):
                        names.add(target.id)
        return names

    def _collect_set_attrs(
        self, tree: ast.Module, aliases: dict[str, str]
    ) -> set[str]:
        """Attribute names provably set-typed anywhere in the file.

        Covers ``self.X: set[int] = ...`` in ``__init__``, dataclass
        fields (``X: set[int]`` in a class body), and ``self.X = set()``
        assignments.  Attribute tracking is by name, not by class — a
        same-named non-set attribute on another class would false-
        positive, which a suppression comment resolves.
        """
        attrs: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.AnnAssign):
                target = node.target
                is_attr = isinstance(target, ast.Attribute)
                is_field = isinstance(target, ast.Name)
                if (is_attr or is_field) and self._annotation_is_set(
                    node.annotation, aliases
                ):
                    # Class-body AnnAssigns (dataclass fields) bind names
                    # that surface as attributes; plain-Name AnnAssigns
                    # inside functions are handled per-scope instead.
                    if is_attr:
                        attrs.add(target.attr)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Attribute) and self._value_is_set(
                        node.value, aliases
                    ):
                        attrs.add(target.attr)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if (
                        isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and self._annotation_is_set(stmt.annotation, aliases)
                    ):
                        attrs.add(stmt.target.id)
        return attrs


class FloatIntoIntCounterRule(Rule):
    """R005: no float contamination of integer device counters.

    ``FlashStats`` byte/op counters (and the engine request counters)
    are exact integers; ALWA/DLWA are computed as ratios of them.  A
    float slipping in (a ``/`` division, a float literal scale factor)
    silently turns exact accounting into accumulated rounding error —
    the WA comparisons the paper rests on stop being trustworthy.
    Wrap intentional conversions in ``int(...)`` or use ``//``.
    """

    code = "R005"
    name = "float-into-int-counter"
    zones = frozenset({"core", "flash", "baselines"})

    INT_COUNTER_FIELDS = frozenset(
        {
            # FlashStats byte/op counters.
            "logical_write_bytes",
            "logical_read_bytes",
            "host_write_bytes",
            "host_read_bytes",
            "flash_write_bytes",
            "flash_read_bytes",
            "host_write_ops",
            "host_read_ops",
            "erase_ops",
            "gc_runs",
            "gc_relocated_pages",
            # EngineCounters request counters.
            "lookups",
            "hits",
            "inserts",
            "insert_bytes",
            "deletes",
            "evicted_objects",
            "evicted_bytes",
        }
    )
    #: record_* methods whose byte/count arguments must stay integral.
    RECORDER_METHODS = frozenset(
        {
            "record_logical",
            "record_logical_read",
            "record_host_write",
            "record_host_read",
            "record_gc",
            "record_erase",
            "record_admission",
        }
    )
    INT_COERCIONS = frozenset({"int", "len", "round"})

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr in self.INT_COUNTER_FIELDS
                        and self._floatish(node.value)
                    ):
                        yield self.violation(
                            ctx,
                            node,
                            f"float expression assigned into integer counter "
                            f"`{target.attr}` (wrap in int(...) or use //)",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in self.RECORDER_METHODS
                ):
                    for arg in node.args:
                        if self._floatish(arg):
                            yield self.violation(
                                ctx,
                                node,
                                f"float expression passed to "
                                f"`{func.attr}(...)` which feeds integer "
                                "counters (wrap in int(...) or use //)",
                            )

    def _floatish(self, expr: ast.expr) -> bool:
        """Conservatively: does this expression *provably* produce a float?"""
        if isinstance(expr, ast.Constant):
            return isinstance(expr.value, float)
        if isinstance(expr, ast.Call):
            if isinstance(expr.func, ast.Name):
                if expr.func.id in self.INT_COERCIONS:
                    return False
                if expr.func.id == "float":
                    return True
            return False
        if isinstance(expr, ast.BinOp):
            if isinstance(expr.op, ast.Div):
                return True
            if isinstance(expr.op, ast.FloorDiv):
                return False
            return self._floatish(expr.left) or self._floatish(expr.right)
        if isinstance(expr, ast.UnaryOp):
            return self._floatish(expr.operand)
        if isinstance(expr, ast.IfExp):
            return self._floatish(expr.body) or self._floatish(expr.orelse)
        return False


class BroadExceptRule(Rule):
    """R006: no silent broad excepts.

    A bare ``except:`` or ``except Exception:`` that neither re-raises
    nor logs swallows the very failures the determinism contract needs
    surfaced (a worker dying, an accounting invariant tripping).  The
    deliberate degrade points (the parallel harness's pool boundary)
    carry an audited ``# reprolint: disable=R006`` comment instead.
    """

    code = "R006"
    name = "silent-broad-except"
    zones = None

    BROAD = frozenset({"Exception", "BaseException"})
    LOGGING_CALL_ATTRS = frozenset(
        {"debug", "info", "warning", "warn", "error", "exception", "critical", "log"}
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        aliases = _qualname_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type, aliases):
                continue
            if self._reraises_or_logs(node):
                continue
            label = "bare `except:`" if node.type is None else "broad `except Exception:`"
            yield self.violation(
                ctx,
                node,
                f"{label} neither re-raises nor logs — failures are "
                "silently swallowed (narrow the exception, re-raise, or "
                "log and suppress with an audited comment)",
            )

    def _is_broad(
        self, type_node: ast.expr | None, aliases: dict[str, str]
    ) -> bool:
        if type_node is None:
            return True
        if isinstance(type_node, ast.Tuple):
            return any(self._is_broad(elt, aliases) for elt in type_node.elts)
        qual = _resolve(type_node, aliases)
        return qual is not None and qual.rsplit(".", 1)[-1] in self.BROAD

    def _reraises_or_logs(self, handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id == "print":
                    return True
                if isinstance(func, ast.Attribute) and (
                    func.attr in self.LOGGING_CALL_ATTRS
                ):
                    return True
        return False


#: Registration order == reporting order for same-line findings.
ALL_RULES: tuple[Rule, ...] = (
    WallClockRule(),
    UnseededRandomRule(),
    SetOrderRule(),
    FloatIntoIntCounterRule(),
    BroadExceptRule(),
)


def rules_by_code() -> dict[str, Rule]:
    return {rule.code: rule for rule in ALL_RULES}
