"""Interprocedural deep rules D101-D105.

Each rule is a function from an assembled :class:`Project` to a list of
:class:`~repro.lint.engine.Violation`.  All five anchor themselves in
the repo's *registries* rather than hard-coded module lists, so the
fixture packages under ``tests/lint/fixtures/deep/`` exercise the same
discovery path as the real tree:

- **engine classes**: classes instantiated inside a function named
  ``make_engine`` that (transitively) subclass a class named
  ``CacheEngine`` — the cluster factory is the single authority for
  which engines exist (``repro.cluster.factory.ENGINE_NAMES``);
- **replay roots**: ``replay=`` entries of module-level registry dicts
  (``KERNEL_REGISTRY`` in ``repro.harness.columnar``).

Suppression uses the same ``# reprolint: disable=D10x`` comments as the
shallow rules, resolved against the tokenize-backed comment map in each
:class:`~repro.lint.deep.symbols.ModuleInfo`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lint.deep.callgraph import Project
from repro.lint.deep.dataflow import covered_fixpoint, reachable, shortest_path
from repro.lint.deep.symbols import (
    ENGINE_MUTATORS,
    ClassInfo,
    FuncInfo,
    ModuleInfo,
    _annotation_base_str,
)
from repro.lint.engine import Violation

#: D105's bulk/scalar pairs.
BULK_SCALAR_PAIRS = (
    ("lookup_many", "lookup"),
    ("insert_many", "insert"),
    ("delete_many", "delete"),
)

#: The engine base class every registered engine must extend, and the
#: crash-protocol methods D104 requires each engine to override.
ENGINE_BASE_NAME = "CacheEngine"
CRASH_PROTOCOL = ("crash", "recover")


@dataclass
class Anchors:
    """Registry-derived roots the deep rules hang off."""

    engine_classes: list[ClassInfo] = field(default_factory=list)
    base_engine: ClassInfo | None = None
    replay_roots: list[str] = field(default_factory=list)
    #: qualnames of every engine method (public entry surface).
    engine_entry_points: list[str] = field(default_factory=list)


def _subclasses_base(project: Project, cls: ClassInfo, base_name: str) -> bool:
    return any(c.name == base_name for c in project.mro(cls)[1:])


def discover_anchors(project: Project) -> Anchors:
    anchors = Anchors()
    bases = project.classes_by_name.get(ENGINE_BASE_NAME, [])
    anchors.base_engine = bases[0] if bases else None

    seen: set[str] = set()
    for fn in project.functions.values():
        if fn.name != "make_engine":
            continue
        for leaf in fn.instantiates:
            for cls in project.class_by_name(leaf):
                if cls.qualname in seen or cls.name == ENGINE_BASE_NAME:
                    continue
                if _subclasses_base(project, cls, ENGINE_BASE_NAME):
                    seen.add(cls.qualname)
                    anchors.engine_classes.append(cls)
    anchors.engine_classes.sort(key=lambda c: c.qualname)

    for mod in project.modules.values():
        for entries in mod.dict_registries.values():
            for entry in entries:
                replay = entry["kwargs"].get("replay")
                if replay is None:
                    continue
                qual = replay if "." in replay else f"{mod.module}.{replay}"
                if qual in project.functions:
                    anchors.replay_roots.append(qual)
    anchors.replay_roots.sort()

    for cls in anchors.engine_classes:
        for method, qual in sorted(cls.methods.items()):
            if not method.startswith("_") or method == "__init__":
                anchors.engine_entry_points.append(qual)
    return anchors


def _module_of(project: Project, fn: FuncInfo) -> ModuleInfo | None:
    for mod in project.modules.values():
        if mod.module == fn.module:
            return mod
    return None


def _emit(
    project: Project,
    fn: FuncInfo,
    line: int,
    col: int,
    code: str,
    message: str,
    out: list[Violation],
) -> None:
    mod = _module_of(project, fn)
    if mod is None:
        return
    if mod.is_suppressed(line, code):
        return
    out.append(
        Violation(path=mod.path, line=line, col=col, code=code, message=message)
    )


def _witness(project: Project, roots: list[str], target: str) -> str:
    path = shortest_path(project.edges, roots, target)
    if not path:
        return target
    leaves = [q.rsplit(".", 2)[-1] if ".<module>" in q else q.split(".")[-1] for q in path]
    return " -> ".join(leaves)


# ----------------------------------------------------------------------
# D101: unseeded-randomness reachability
# ----------------------------------------------------------------------
def check_d101(project: Project, anchors: Anchors) -> list[Violation]:
    """Any call path from an engine/replay entry point to an unseeded
    randomness source (global ``random`` draws, zero-argument stream
    constructors, OS entropy) breaks replay determinism."""
    roots = anchors.engine_entry_points + anchors.replay_roots
    scope = reachable(project.edges, roots)
    out: list[Violation] = []
    for qual in sorted(scope):
        fn = project.functions.get(qual)
        if fn is None:
            continue
        for site in fn.rng_sites:
            if site.seeded:
                continue
            chain = _witness(project, roots, qual)
            _emit(
                project,
                fn,
                site.line,
                site.col,
                "D101",
                (
                    f"unseeded randomness `{site.qual}` reachable from a "
                    f"replay entry point via {chain}; draw from a seeded "
                    "stream instead"
                ),
                out,
            )
    return out


# ----------------------------------------------------------------------
# D102: accounting completeness
# ----------------------------------------------------------------------
def check_d102(project: Project, anchors: Anchors) -> list[Violation]:
    """Every entry-reachable call path that performs a NAND
    program/erase must reach a FlashStats counter mutation, so no
    engine burns flash cycles the WA accounting never sees."""
    roots = anchors.engine_entry_points + anchors.replay_roots
    entry_reachable = reachable(project.edges, roots)

    sink_owners = {
        fn.qualname
        for fn in project.functions.values()
        if fn.stats_mut_sites
    }
    # ``has_sink``: functions from which some sink owner is forward-
    # reachable (the accounting may live further down the flow).
    has_sink = {
        qual
        for qual in entry_reachable
        if reachable(project.edges, [qual]) & sink_owners
    }

    needs_cover = {
        fn.qualname
        for fn in project.functions.values()
        if fn.nand_sites and fn.qualname in entry_reachable
    }
    uncovered = covered_fixpoint(
        project.edges, entry_reachable, needs_cover, has_sink
    )
    out: list[Violation] = []
    for qual in sorted(uncovered):
        fn = project.functions[qual]
        for site in fn.nand_sites:
            chain = _witness(project, roots, qual)
            _emit(
                project,
                fn,
                site.line,
                site.col,
                "D102",
                (
                    f"NAND `{site.name}` on path {chain} never reaches a "
                    "FlashStats counter mutation; record the flash traffic "
                    "or account in the caller"
                ),
                out,
            )
    return out


# ----------------------------------------------------------------------
# D103: columnar-kernel purity
# ----------------------------------------------------------------------
def check_d103(project: Project, anchors: Anchors) -> list[Violation]:
    """Decision passes reachable from registered columnar kernels must
    stay pure: no stores to engine/FTL attributes and no engine-mutator
    calls outside the registered replay drivers (whose compact mutation
    loops are audited via the R008 zone markers)."""
    if not anchors.replay_roots:
        return []
    engine_class_names = {c.name for c in anchors.engine_classes}
    if anchors.base_engine is not None:
        engine_class_names.add(anchors.base_engine.name)
        for sub in project.all_subclasses(anchors.base_engine):
            engine_class_names.add(sub.name)

    # The registered replay drivers and their nested closures ARE the
    # mutation surface; everything else they reach must be store-free.
    allowed: set[str] = set()
    for root in anchors.replay_roots:
        allowed |= project.nested_within(root)

    scope = reachable(project.edges, anchors.replay_roots)
    out: list[Violation] = []
    for qual in sorted(scope - allowed):
        fn = project.functions.get(qual)
        if fn is None:
            continue
        mod = _module_of(project, fn)
        if mod is None or not mod.columnar_marker:
            # Engine/flash internals called *by* kernels keep their own
            # contracts (D102 etc.); purity binds inside marker files.
            continue
        for store in fn.attr_stores:
            if _engine_rooted(fn, store.root, engine_class_names):
                _emit(
                    project,
                    fn,
                    store.line,
                    store.col,
                    "D103",
                    (
                        f"decision pass `{fn.name}` stores to engine "
                        f"attribute `{store.attr}`; move the mutation into "
                        "a registered replay driver's audited loop"
                    ),
                    out,
                )
        for call in fn.calls:
            if call.attr in ENGINE_MUTATORS and _engine_rooted(
                fn, call.recv_root, engine_class_names
            ):
                _emit(
                    project,
                    fn,
                    call.line,
                    call.col,
                    "D103",
                    (
                        f"decision pass `{fn.name}` calls engine mutator "
                        f"`{call.attr}`; only registered replay drivers may "
                        "mutate engine state"
                    ),
                    out,
                )
    return out


def _engine_rooted(fn: FuncInfo, root: str, engine_class_names: set[str]) -> bool:
    """Does this receiver/store root resolve to an engine instance?"""
    if root.startswith("local:") or root.startswith("class:"):
        return root.split(":", 1)[1] in engine_class_names
    if root.startswith("param:"):
        name = root[6:]
        for p in fn.params:
            if p.name == name:
                if p.annotation is not None:
                    base = _annotation_base_str(p.annotation)
                    return base in engine_class_names
                # Unannotated: engine-ish names still count (kernels
                # thread the engine positionally).
                return name in ("engine", "cache")
        return False
    return False


# ----------------------------------------------------------------------
# D104: crash-protocol totality
# ----------------------------------------------------------------------
def check_d104(project: Project, anchors: Anchors) -> list[Violation]:
    """Every registered engine must define ``crash``/``recover``
    (own or inherited override, not the base's raising stub), and no
    recover path may call unseeded randomness or the wall clock."""
    out: list[Violation] = []
    base = anchors.base_engine
    for cls in anchors.engine_classes:
        for method in CRASH_PROTOCOL:
            fn = project.resolve_method(cls, method)
            defined = fn is not None and (
                base is None or fn.cls != base.name or cls.qualname == base.qualname
            )
            if not defined:
                cls_fn = _class_site(project, cls)
                if cls_fn is not None:
                    _emit(
                        project,
                        cls_fn,
                        cls.lineno,
                        0,
                        "D104",
                        (
                            f"registered engine `{cls.name}` does not "
                            f"implement `{method}` (crash-protocol totality)"
                        ),
                        out,
                    )
        recover = project.resolve_method(cls, "recover")
        if recover is None or (base is not None and recover.cls == base.name):
            continue
        recover_scope = reachable(project.edges, [recover.qualname])
        for qual in sorted(recover_scope):
            fn = project.functions.get(qual)
            if fn is None:
                continue
            for site in fn.rng_sites:
                if not site.seeded:
                    chain = _witness(project, [recover.qualname], qual)
                    _emit(
                        project,
                        fn,
                        site.line,
                        site.col,
                        "D104",
                        (
                            f"`{cls.name}.recover` path {chain} draws "
                            f"unseeded randomness `{site.qual}`; recovery "
                            "must be deterministic"
                        ),
                        out,
                    )
            for wsite in fn.wallclock_sites:
                chain = _witness(project, [recover.qualname], qual)
                _emit(
                    project,
                    fn,
                    wsite.line,
                    wsite.col,
                    "D104",
                    (
                        f"`{cls.name}.recover` path {chain} reads the wall "
                        f"clock (`{wsite.name}`); recovery must replay "
                        "simulated time"
                    ),
                    out,
                )
    return out


def _class_site(project: Project, cls: ClassInfo) -> FuncInfo | None:
    """A FuncInfo in the class's module, for locating class-level
    findings (any function of that module will do for path lookup)."""
    for fn in project.functions.values():
        if fn.module == cls.module:
            return fn
    return None


# ----------------------------------------------------------------------
# D105: bulk/scalar API parity
# ----------------------------------------------------------------------
def check_d105(project: Project, anchors: Anchors) -> list[Violation]:
    """Bulk ``*_many`` methods must agree with their scalar
    counterparts and with the ``CacheEngine`` base signatures: base
    parameters are a prefix of every override (same names, defaults and
    annotations), and any extra parameters carry defaults."""
    out: list[Violation] = []
    base = anchors.base_engine
    for cls in anchors.engine_classes:
        for bulk_name, scalar_name in BULK_SCALAR_PAIRS:
            bulk = project.resolve_method(cls, bulk_name)
            scalar = project.resolve_method(cls, scalar_name)
            site = _class_site(project, cls)
            if bulk is None or scalar is None:
                missing = bulk_name if bulk is None else scalar_name
                if site is not None:
                    _emit(
                        project,
                        site,
                        cls.lineno,
                        0,
                        "D105",
                        f"engine `{cls.name}` lacks `{missing}` "
                        "(bulk/scalar API parity)",
                        out,
                    )
                continue
            if base is not None:
                for fn, name in ((bulk, bulk_name), (scalar, scalar_name)):
                    base_fn = project.resolve_method(base, name)
                    if base_fn is None or fn.qualname == base_fn.qualname:
                        continue
                    out.extend(
                        _signature_parity(project, cls, base_fn, fn)
                    )
            # Shared parameter names must default identically across the
            # bulk/scalar pair (e.g. ``now_us``, ``record``).
            bulk_params = {p.name: p for p in bulk.params}
            for p in scalar.params:
                twin = bulk_params.get(p.name)
                if (
                    twin is not None
                    and p.default is not None
                    and twin.default is not None
                    and p.default != twin.default
                ):
                    _emit(
                        project,
                        bulk,
                        bulk.lineno,
                        0,
                        "D105",
                        (
                            f"`{cls.name}.{bulk.name}` defaults "
                            f"`{p.name}={twin.default}` but scalar "
                            f"`{scalar.name}` defaults `{p.name}={p.default}`"
                        ),
                        out,
                    )
    return _dedupe(out)


def _signature_parity(
    project: Project,
    cls: ClassInfo,
    base_fn: FuncInfo,
    fn: FuncInfo,
) -> list[Violation]:
    out: list[Violation] = []
    base_params = [p for p in base_fn.params if p.name != "self"]
    params = [p for p in fn.params if p.name != "self"]

    def emit(message: str) -> None:
        _emit(project, fn, fn.lineno, 0, "D105", message, out)

    for i, bp in enumerate(base_params):
        if i >= len(params):
            emit(
                f"`{cls.name}.{fn.name}` drops base parameter `{bp.name}`"
            )
            return out
        op = params[i]
        if op.name != bp.name:
            emit(
                f"`{cls.name}.{fn.name}` renames base parameter "
                f"`{bp.name}` to `{op.name}`"
            )
            return out
        if bp.default != op.default:
            emit(
                f"`{cls.name}.{fn.name}` changes default of `{bp.name}` "
                f"from `{bp.default}` to `{op.default}`"
            )
        if bp.annotation is not None:
            if op.annotation is None:
                emit(
                    f"`{cls.name}.{fn.name}` drops the annotation on "
                    f"`{bp.name}` (base: `{bp.annotation}`)"
                )
            elif op.annotation != bp.annotation:
                emit(
                    f"`{cls.name}.{fn.name}` re-types `{bp.name}` as "
                    f"`{op.annotation}` (base: `{bp.annotation}`)"
                )
    for op in params[len(base_params):]:
        if op.kind in ("pos", "posonly", "kwonly") and op.default is None:
            emit(
                f"`{cls.name}.{fn.name}` adds required parameter "
                f"`{op.name}` beyond the base signature"
            )
    return out


def _dedupe(violations: list[Violation]) -> list[Violation]:
    seen: set[tuple[str, int, int, str, str]] = set()
    out: list[Violation] = []
    for v in violations:
        key = (v.path, v.line, v.col, v.code, v.message)
        if key not in seen:
            seen.add(key)
            out.append(v)
    return out


#: (code, description, checker) — the deep driver iterates this.
DEEP_RULES = (
    ("D101", "unseeded randomness reachable from replay entry points", check_d101),
    ("D102", "NAND program/erase path misses FlashStats accounting", check_d102),
    ("D103", "columnar decision pass mutates engine state", check_d103),
    ("D104", "engine crash protocol missing or nondeterministic", check_d104),
    ("D105", "bulk/scalar API signature parity", check_d105),
)
