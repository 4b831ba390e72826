"""Project-wide symbol extraction for the whole-program lint layer.

One pass per file turns the AST into a :class:`ModuleInfo`: classes
(bases, methods, attribute types), functions (parameters, nesting), and
— per function — the *facts* the deep rules consume (call sites with
receiver inference, attribute stores with taint roots,
RNG/wall-clock/accounting sites).

Receiver inference is deliberately static and local (DESIGN.md §6):

- ``self.m()`` resolves through the enclosing class (the call-graph
  layer walks base classes);
- a parameter annotated ``engine: CacheEngine`` resolves to that class
  (the call-graph layer fans out to subclass overrides);
- ``x = ClassName(...)`` taints ``x`` with ``ClassName`` for the rest of
  the function; ``y = x.attr`` keeps the taint root (``x``'s origin) so
  stores through local aliases (``counters = engine.counters``;
  ``counters.hits += 1``) still resolve to the engine parameter.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Any

_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\s]+)")

#: NandArray methods that burn flash cycles (D102 sources).
NAND_OPS = frozenset({"program", "erase_block", "erase_zone"})

#: FlashStats recorder methods (D102 sinks), mirroring R005's list plus
#: the fault-layer recorders.
STATS_RECORDERS = frozenset(
    {
        "record_logical",
        "record_logical_read",
        "record_host_write",
        "record_host_read",
        "record_gc",
        "record_erase",
        "record_admission",
        "record_read_retry",
        "record_ecc_rescue",
        "record_program_failure",
        "record_erase_failure",
        "record_block_retired",
    }
)

#: FlashStats/EngineCounters integer counter fields (D102 sinks when
#: stored to directly, as the inlined device hot paths do).
STATS_COUNTER_FIELDS = frozenset(
    {
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
    }
)

#: Global-state draws (R002's list — D101 treats any of them as an
#: unseeded source when reachable from a replay entry point).
GLOBAL_RANDOM_FUNCS = frozenset(
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

#: Stream constructors that are deterministic only when given a seed
#: argument; a zero-argument call draws entropy from the OS.
SEEDABLE_CONSTRUCTORS = frozenset(
    {
        "random.Random",
        "numpy.random.default_rng",
        "numpy.random.RandomState",
    }
)

#: Sources that are nondeterministic no matter how they are called.
ALWAYS_UNSEEDED = frozenset(
    {
        "random.SystemRandom",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbelow",
        "secrets.choice",
    }
)

#: Wall-clock reads (R001's list — D104 bans them on recovery paths,
#: which run inside the simulated world even for harness-zone callers).
WALL_CLOCK = frozenset(
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

#: Engine methods that mutate engine state (D103 flags *calls* to these
#: on engine-tainted receivers outside the audited mutation drivers).
ENGINE_MUTATORS = frozenset(
    {
        "insert",
        "insert_many",
        "insert_column",
        "delete",
        "delete_many",
        "crash",
        "recover",
        "record_admission",
    }
)


@dataclass
class ParamInfo:
    """One formal parameter: name, kind, default/annotation as source."""

    name: str
    kind: str  # "posonly" | "pos" | "vararg" | "kwonly" | "kwarg"
    default: str | None = None
    annotation: str | None = None


@dataclass
class CallSite:
    """One call expression, pre-resolved as far as one file allows.

    ``resolved`` is a dotted qualname when the callee is a plain name or
    module attribute (``repro.flash.device.NandArray``, ``numpy.sum``);
    for method calls ``attr`` holds the method name and the receiver is
    described by ``recv_root`` (``"self"``, ``"param:engine"``,
    ``"local:<ClassName>"`` for a locally-constructed instance, or
    ``""`` when unknown) plus ``recv_chain`` (attribute path from the
    root, e.g. ``["device", "nand"]`` for ``self.device.nand.program``).
    """

    line: int
    col: int
    resolved: str | None = None
    attr: str | None = None
    recv_root: str = ""
    recv_chain: list[str] = field(default_factory=list)
    num_args: int = 0


@dataclass
class AttrStore:
    """One attribute store/augstore, with its taint root.

    ``root`` uses the same encoding as ``CallSite.recv_root``; ``chain``
    is the attribute path between the root and the stored attribute;
    ``loop_lines`` are the line numbers of enclosing ``for``/``while``
    statements (used to honour the audited-mutation-loop allowlist).
    """

    line: int
    col: int
    attr: str
    root: str = ""
    chain: list[str] = field(default_factory=list)
    loop_lines: list[int] = field(default_factory=list)


@dataclass
class RngSite:
    """A randomness source: a global-state draw or a stream construction."""

    line: int
    col: int
    qual: str
    seeded: bool


@dataclass
class SimpleSite:
    """A named fact at a location (wall-clock read, NAND op, stats write)."""

    line: int
    col: int
    name: str


@dataclass
class FuncInfo:
    """One function or method, with its rule-relevant facts."""

    name: str
    qualname: str  # module-qualified: pkg.mod.Class.method / pkg.mod.func
    module: str
    cls: str | None
    lineno: int
    end_lineno: int
    params: list[ParamInfo] = field(default_factory=list)
    decorators: list[str] = field(default_factory=list)
    parent: str | None = None  # enclosing function qualname, if nested
    calls: list[CallSite] = field(default_factory=list)
    attr_stores: list[AttrStore] = field(default_factory=list)
    rng_sites: list[RngSite] = field(default_factory=list)
    wallclock_sites: list[SimpleSite] = field(default_factory=list)
    stats_mut_sites: list[SimpleSite] = field(default_factory=list)
    nand_sites: list[SimpleSite] = field(default_factory=list)
    instantiates: list[str] = field(default_factory=list)
    referenced_names: list[str] = field(default_factory=list)


@dataclass
class ClassInfo:
    """One class: bases (resolved where imports allow) and members."""

    name: str
    qualname: str
    module: str
    lineno: int
    bases: list[str] = field(default_factory=list)
    methods: dict[str, str] = field(default_factory=dict)  # name -> func qualname
    attr_types: dict[str, str] = field(default_factory=dict)  # attr -> class name


@dataclass
class SuppressionComment:
    """One genuine ``# reprolint: disable=...`` comment (not a docstring
    mention), with the lines it silences."""

    line: int
    codes: list[str]
    effective_lines: list[int]


@dataclass
class ModuleInfo:
    """Everything the deep layer knows about one file."""

    module: str
    path: str
    zone: str
    columnar_marker: bool = False
    aliases: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FuncInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: module-level dict literals of the KERNEL_REGISTRY shape:
    #: target name -> [{"key": resolved, "kwargs": {kw: resolved}}].
    dict_registries: dict[str, list[dict[str, Any]]] = field(default_factory=dict)
    suppressions: dict[str, list[str]] = field(default_factory=dict)  # line->codes
    comments: list[SuppressionComment] = field(default_factory=list)
    exports: list[str] = field(default_factory=list)  # __all__ strings

    def is_suppressed(self, line: int, code: str) -> bool:
        codes = self.suppressions.get(str(line))
        if not codes:
            return False
        return "all" in codes or code in codes


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def module_name_for(rel_path: str) -> str:
    """Repo-relative path -> dotted module name (``src/`` stripped)."""
    parts = list(rel_path.split("/"))
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _alias_map(tree: ast.Module, module: str) -> dict[str, str]:
    """Local name -> dotted origin, including relative imports."""
    mapping: dict[str, str] = {}
    pkg_parts = module.split(".")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                mapping[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                # ``from .base import X`` inside pkg.mod -> pkg.base.X
                anchor = pkg_parts[: len(pkg_parts) - node.level]
                base = ".".join(anchor + ([node.module] if node.module else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                origin = f"{base}.{alias.name}" if base else alias.name
                mapping[alias.asname or alias.name] = origin
    return mapping


def _resolve_dotted(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """Name/Attribute chain -> dotted qualname through the alias map."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(aliases.get(node.id, node.id))
    return ".".join(reversed(parts))


def _annotation_base(annotation: ast.expr | None) -> str | None:
    """The class-name head of an annotation: ``X``, ``X | None``,
    ``Optional[X]``, ``"X"`` -> ``X`` (dotted names keep their leaf)."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        text = annotation.value.split("[", 1)[0].split("|", 1)[0].strip()
        return text.rsplit(".", 1)[-1] or None
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        left = _annotation_base(annotation.left)
        if left not in (None, "None"):
            return left
        return _annotation_base(annotation.right)
    if isinstance(annotation, ast.Subscript):
        head = _annotation_base(annotation.value)
        if head == "Optional":
            return _annotation_base(
                annotation.slice
                if not isinstance(annotation.slice, ast.Tuple)
                else annotation.slice.elts[0]
            )
        return head
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.Name):
        return annotation.id
    return None


def parse_suppression_comments(source: str) -> list[SuppressionComment]:
    """Genuine ``# reprolint: disable=...`` comments, via tokenize.

    Unlike a raw line-regex, docstring mentions of the comment syntax do
    not register.  A comment on a code line silences that line; a
    comment-only line silences itself and the next line.
    """
    comments: list[SuppressionComment] = []
    code_lines: set[int] = set()
    comment_tokens: list[tuple[int, str]] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                comment_tokens.append((tok.start[0], tok.string))
            elif tok.type not in (
                tokenize.NL,
                tokenize.NEWLINE,
                tokenize.INDENT,
                tokenize.DEDENT,
                tokenize.ENDMARKER,
                tokenize.ENCODING,
            ):
                for ln in range(tok.start[0], tok.end[0] + 1):
                    code_lines.add(ln)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return []
    for lineno, text in comment_tokens:
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        codes = sorted({c.strip() for c in match.group(1).split(",") if c.strip()})
        effective = [lineno]
        if lineno not in code_lines:  # comment-only line: covers the next
            effective.append(lineno + 1)
        comments.append(
            SuppressionComment(line=lineno, codes=codes, effective_lines=effective)
        )
    return comments


_MARKER_RE = re.compile(r"^\s*#\s*reprolint:\s*columnar-kernel-zone\s*$")


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------
class _FunctionExtractor:
    """Walks one function body (including nested defs, which share the
    taint environment) and collects the fact lists."""

    def __init__(
        self,
        info: FuncInfo,
        aliases: dict[str, str],
        class_names: set[str],
        module_info: ModuleInfo,
    ) -> None:
        self.info = info
        self.aliases = aliases
        self.class_names = class_names
        self.module_info = module_info
        #: local name -> ("class", ClassName) | ("root", root, chain)
        self.taint: dict[str, tuple[str, ...]] = {}
        self.loop_stack: list[int] = []

    # -- receiver description ------------------------------------------
    def _describe_receiver(self, node: ast.expr) -> tuple[str, list[str]]:
        """(root, chain) for an attribute-access base expression."""
        chain: list[str] = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        chain.reverse()
        if isinstance(node, ast.Name):
            name = node.id
            if name == "self":
                return "self", chain
            taint = self.taint.get(name)
            if taint is not None:
                if taint[0] == "class":
                    return f"local:{taint[1]}", chain
                root, base_chain = taint[1], list(taint[2].split(".")) if taint[2] else []
                return root, base_chain + chain
            param_names = {p.name for p in self.info.params}
            if name in param_names:
                return f"param:{name}", chain
            if name in self.class_names:
                return f"class:{name}", chain
            return f"name:{name}", chain
        return "", chain

    def _param_annotation(self, name: str) -> str | None:
        for p in self.info.params:
            if p.name == name:
                return p.annotation
        return None

    # -- statement walk -------------------------------------------------
    def walk(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs are extracted as their own FuncInfo by the
            # module extractor; skip their bodies here.
            return
        if isinstance(stmt, ast.ClassDef):
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._expr(stmt.iter)
            self.loop_stack.append(stmt.lineno)
            for s in stmt.body:
                self._stmt(s)
            self.loop_stack.pop()
            for s in stmt.orelse:
                self._stmt(s)
            return
        if isinstance(stmt, ast.While):
            self._expr(stmt.test)
            self.loop_stack.append(stmt.lineno)
            for s in stmt.body:
                self._stmt(s)
            self.loop_stack.pop()
            for s in stmt.orelse:
                self._stmt(s)
            return
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._assignment(stmt)
            return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._stmt(child)
            elif isinstance(child, ast.expr):
                self._expr(child)

    def _assignment(self, stmt: ast.stmt) -> None:
        value = getattr(stmt, "value", None)
        if value is not None:
            self._expr(value)
        targets: list[ast.expr]
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        else:
            targets = [stmt.target]  # type: ignore[list-item]
        for target in targets:
            if isinstance(target, ast.Attribute):
                root, chain = self._describe_receiver(target.value)
                self.info.attr_stores.append(
                    AttrStore(
                        line=target.lineno,
                        col=target.col_offset,
                        attr=target.attr,
                        root=root,
                        chain=chain,
                        loop_lines=list(self.loop_stack),
                    )
                )
                if target.attr in STATS_COUNTER_FIELDS:
                    self.info.stats_mut_sites.append(
                        SimpleSite(
                            line=target.lineno,
                            col=target.col_offset,
                            name=target.attr,
                        )
                    )
            elif isinstance(target, ast.Name) and isinstance(stmt, ast.Assign):
                self._taint_from(target.id, value)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    if isinstance(elt, ast.Attribute):
                        root, chain = self._describe_receiver(elt.value)
                        self.info.attr_stores.append(
                            AttrStore(
                                line=elt.lineno,
                                col=elt.col_offset,
                                attr=elt.attr,
                                root=root,
                                chain=chain,
                                loop_lines=list(self.loop_stack),
                            )
                        )

    def _taint_from(self, name: str, value: ast.expr | None) -> None:
        """Propagate class/root taint through simple local assignments."""
        if value is None:
            return
        if isinstance(value, ast.Call):
            qual = _resolve_dotted(value.func, self.aliases)
            if qual is not None and qual.rsplit(".", 1)[-1] in self.class_names:
                self.taint[name] = ("class", qual.rsplit(".", 1)[-1])
                return
            self.taint.pop(name, None)
            return
        if isinstance(value, (ast.Attribute, ast.Name)):
            root, chain = self._describe_receiver(value)
            if root.startswith(("self", "param:", "local:")):
                self.taint[name] = ("root", root, ".".join(chain))
                return
        self.taint.pop(name, None)

    # -- expression walk ------------------------------------------------
    def _expr(self, node: ast.expr) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._call(sub)
            elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                self.info.referenced_names.append(sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                self.info.referenced_names.append(sub.attr)
        # RNG / wall-clock facts live on loads, call or not.
        for sub in ast.walk(node):
            if not isinstance(sub, (ast.Attribute, ast.Name)):
                continue
            if not isinstance(sub.ctx, ast.Load):
                continue
            qual = _resolve_dotted(sub, self.aliases)
            if qual is None:
                continue
            if qual in WALL_CLOCK:
                self.info.wallclock_sites.append(
                    SimpleSite(line=sub.lineno, col=sub.col_offset, name=qual)
                )
            elif qual in ALWAYS_UNSEEDED:
                self.info.rng_sites.append(
                    RngSite(line=sub.lineno, col=sub.col_offset, qual=qual, seeded=False)
                )
            elif "." in qual:
                prefix, attr = qual.rsplit(".", 1)
                if prefix == "random" and attr in GLOBAL_RANDOM_FUNCS:
                    self.info.rng_sites.append(
                        RngSite(
                            line=sub.lineno, col=sub.col_offset, qual=qual, seeded=False
                        )
                    )
                elif prefix == "numpy.random" and attr not in {
                    "default_rng",
                    "Generator",
                    "BitGenerator",
                    "SeedSequence",
                    "PCG64",
                    "PCG64DXSM",
                    "Philox",
                    "SFC64",
                    "MT19937",
                    "RandomState",
                }:
                    self.info.rng_sites.append(
                        RngSite(
                            line=sub.lineno, col=sub.col_offset, qual=qual, seeded=False
                        )
                    )

    def _call(self, node: ast.Call) -> None:
        num_args = len(node.args) + len(node.keywords)
        qual = _resolve_dotted(node.func, self.aliases)
        if qual in SEEDABLE_CONSTRUCTORS:
            self.info.rng_sites.append(
                RngSite(
                    line=node.lineno,
                    col=node.col_offset,
                    qual=qual,
                    seeded=num_args > 0,
                )
            )
        if self._is_direct_call(node.func):
            # Plain-name, module-attribute, or ClassName.method call.
            self.info.calls.append(
                CallSite(
                    line=node.lineno,
                    col=node.col_offset,
                    resolved=qual,
                    num_args=num_args,
                )
            )
            leaf = (qual or "").rsplit(".", 1)[-1]
            if leaf in self.class_names:
                self.info.instantiates.append(leaf)
        elif isinstance(node.func, ast.Attribute):
            root, chain = self._describe_receiver(node.func.value)
            self.info.calls.append(
                CallSite(
                    line=node.lineno,
                    col=node.col_offset,
                    attr=node.func.attr,
                    recv_root=root,
                    recv_chain=chain,
                    num_args=num_args,
                )
            )
            if node.func.attr in STATS_RECORDERS:
                self.info.stats_mut_sites.append(
                    SimpleSite(
                        line=node.lineno, col=node.col_offset, name=node.func.attr
                    )
                )
            if node.func.attr in NAND_OPS and self._is_nand_receiver(root, chain):
                self.info.nand_sites.append(
                    SimpleSite(
                        line=node.lineno, col=node.col_offset, name=node.func.attr
                    )
                )

    def _is_direct_call(self, func: ast.expr) -> bool:
        """Plain-name call, or dotted call rooted at an import/class.

        ``replay(...)`` and ``np.sum(...)`` and ``NandArray.program(...)``
        are direct (the dotted qualname identifies the callee);
        ``self.x.m(...)`` / ``engine.m(...)`` are method calls whose
        receiver the call-graph layer resolves by type.
        """
        if isinstance(func, ast.Name):
            return True
        base = func
        while isinstance(base, ast.Attribute):
            base = base.value
        if not isinstance(base, ast.Name):
            return False
        if base.id in self.taint or base.id == "self":
            return False
        if any(p.name == base.id for p in self.info.params):
            return False
        return base.id in self.aliases or base.id in self.class_names

    def _is_nand_receiver(self, root: str, chain: list[str]) -> bool:
        """Does this receiver look like a NandArray?

        Typed resolution happens later in the call graph; the extractor
        keeps the fact when the receiver is (a) a known NandArray-typed
        local (``local:NandArray``), (b) a chain ending in ``nand``
        (``self.nand``, ``device.nand``), or (c) a parameter whose
        annotation is NandArray.
        """
        if root == "local:NandArray" or root == "class:NandArray":
            return True
        if chain and chain[-1] == "nand":
            return True
        if root == "self" and not chain and "NandArray" in self.class_names:
            # Methods of NandArray itself calling sibling ops.
            return self.info.cls == "NandArray"
        if root.startswith("param:"):
            ann = self._param_annotation(root[6:])
            if ann is not None and _annotation_base_str(ann) == "NandArray":
                return True
        if root.startswith("name:") and root[5:] == "nand":
            return True
        return False


def _annotation_base_str(annotation: str) -> str | None:
    """String annotation -> class-name head (mirrors _annotation_base)."""
    text = annotation.split("[", 1)[0].split("|", 1)[0].strip()
    text = text.removeprefix("Optional[").strip()
    return text.rsplit(".", 1)[-1] or None


def extract_module(
    rel_path: str,
    source: str,
    *,
    zone: str,
    project_class_names: set[str] | None = None,
    tree: ast.Module | None = None,
) -> ModuleInfo:
    """Parse one file into a :class:`ModuleInfo` (raises SyntaxError).

    ``project_class_names`` widens receiver inference with class names
    from *other* files; ``None`` restricts inference to same-file
    classes.  ``tree`` is ``source`` already parsed, when the caller
    has it.
    """
    if tree is None:
        tree = ast.parse(source, filename=rel_path)
    module = module_name_for(rel_path)
    aliases = _alias_map(tree, module)
    info = ModuleInfo(module=module, path=rel_path, zone=zone)

    head = source.splitlines()[:10]
    info.columnar_marker = any(_MARKER_RE.match(line) for line in head)
    info.aliases = aliases
    info.comments = parse_suppression_comments(source)
    suppressions: dict[str, list[str]] = {}
    for comment in info.comments:
        for ln in comment.effective_lines:
            merged = set(suppressions.get(str(ln), [])) | set(comment.codes)
            suppressions[str(ln)] = sorted(merged)
    info.suppressions = suppressions

    class_names = {
        node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    }
    # Imported names that resolve to known project classes participate
    # in receiver inference too.
    if project_class_names:
        for local, origin in aliases.items():
            if origin.rsplit(".", 1)[-1] in project_class_names:
                class_names.add(local)
        class_names |= project_class_names

    def extract_function(
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        qual_prefix: str,
        cls: str | None,
        parent: str | None,
    ) -> None:
        qualname = f"{qual_prefix}.{node.name}"
        params: list[ParamInfo] = []
        args = node.args
        pos_defaults = list(args.defaults)
        positional = list(args.posonlyargs) + list(args.args)
        default_offset = len(positional) - len(pos_defaults)
        for i, arg in enumerate(positional):
            default = None
            if i >= default_offset:
                default = ast.unparse(pos_defaults[i - default_offset])
            params.append(
                ParamInfo(
                    name=arg.arg,
                    kind="posonly" if i < len(args.posonlyargs) else "pos",
                    default=default,
                    annotation=(
                        ast.unparse(arg.annotation) if arg.annotation else None
                    ),
                )
            )
        if args.vararg is not None:
            params.append(ParamInfo(name=args.vararg.arg, kind="vararg"))
        for arg, default_node in zip(args.kwonlyargs, args.kw_defaults):
            params.append(
                ParamInfo(
                    name=arg.arg,
                    kind="kwonly",
                    default=ast.unparse(default_node) if default_node else None,
                    annotation=(
                        ast.unparse(arg.annotation) if arg.annotation else None
                    ),
                )
            )
        if args.kwarg is not None:
            params.append(ParamInfo(name=args.kwarg.arg, kind="kwarg"))

        fn = FuncInfo(
            name=node.name,
            qualname=qualname,
            module=module,
            cls=cls,
            lineno=node.lineno,
            end_lineno=node.end_lineno or node.lineno,
            params=params,
            decorators=[
                _resolve_dotted(d, aliases) or ast.unparse(d)
                for d in node.decorator_list
            ],
            parent=parent,
        )
        extractor = _FunctionExtractor(fn, aliases, class_names, info)
        if cls is not None and params and params[0].name == "self":
            extractor.taint["self"] = ("root", "self", "")
        extractor.walk(node.body)
        info.functions[qualname] = fn
        # Nested functions (closures share the extraction machinery but
        # get their own FuncInfo, parented for the D103 allowlist).
        for stmt in ast.walk(node):
            if stmt is node:
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Only immediate children here; deeper nesting recurses.
                if _immediate_parent_function(node, stmt) is node:
                    extract_function(stmt, qualname, cls, qualname)

    def _immediate_parent_function(
        root: ast.AST, target: ast.AST
    ) -> ast.AST | None:
        """The nearest enclosing function of ``target`` inside ``root``."""
        result: list[ast.AST | None] = [None]

        def visit(node: ast.AST, current: ast.AST | None) -> bool:
            for child in ast.iter_child_nodes(node):
                if child is target:
                    result[0] = current
                    return True
                nxt = (
                    child
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                    else current
                )
                if visit(child, nxt):
                    return True
            return False

        visit(root, root if isinstance(root, (ast.FunctionDef, ast.AsyncFunctionDef)) else None)
        return result[0]

    # Module-level pseudo-function for top-level code (registry dicts,
    # script bodies, decorator references): ``pkg.mod.<module>``.
    top = FuncInfo(
        name="<module>",
        qualname=f"{module}.<module>",
        module=module,
        cls=None,
        lineno=1,
        end_lineno=len(source.splitlines()) or 1,
    )
    top_extractor = _FunctionExtractor(top, aliases, class_names, info)

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            extract_function(node, module, None, None)
        elif isinstance(node, ast.ClassDef):
            cls_info = ClassInfo(
                name=node.name,
                qualname=f"{module}.{node.name}",
                module=module,
                lineno=node.lineno,
                bases=[
                    _resolve_dotted(base, aliases) or ast.unparse(base)
                    for base in node.bases
                    if not isinstance(base, ast.Subscript)
                ],
            )
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    extract_function(stmt, cls_info.qualname, node.name, None)
                    cls_info.methods[stmt.name] = f"{cls_info.qualname}.{stmt.name}"
                elif isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    base = _annotation_base(stmt.annotation)
                    if base is not None:
                        cls_info.attr_types[stmt.target.id] = base
            # ``self.attr = ClassName(...)`` anywhere in the class body.
            for sub in ast.walk(node):
                if isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Call):
                    qual = _resolve_dotted(sub.value.func, aliases)
                    leaf = (qual or "").rsplit(".", 1)[-1]
                    if leaf and leaf in class_names:
                        for target in sub.targets:
                            if (
                                isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"
                            ):
                                cls_info.attr_types[target.attr] = leaf
                elif isinstance(sub, ast.AnnAssign) and isinstance(
                    sub.target, ast.Attribute
                ):
                    if (
                        isinstance(sub.target.value, ast.Name)
                        and sub.target.value.id == "self"
                    ):
                        base = _annotation_base(sub.annotation)
                        if base is not None:
                            cls_info.attr_types[sub.target.attr] = base
            info.classes[node.name] = cls_info
        else:
            # Top-level statement: collect facts + registry dicts.
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                target = (
                    node.targets[0]
                    if isinstance(node, ast.Assign) and node.targets
                    else getattr(node, "target", None)
                )
                value = node.value
                if (
                    isinstance(target, ast.Name)
                    and isinstance(value, ast.Dict)
                ):
                    entries: list[dict[str, Any]] = []
                    for key, val in zip(value.keys, value.values):
                        if key is None:
                            continue
                        entry: dict[str, Any] = {
                            "key": _resolve_dotted(key, aliases),
                            "kwargs": {},
                        }
                        if isinstance(val, ast.Call):
                            for kw in val.keywords:
                                if kw.arg is not None:
                                    entry["kwargs"][kw.arg] = _resolve_dotted(
                                        kw.value, aliases
                                    )
                        entries.append(entry)
                    if entries:
                        info.dict_registries[target.id] = entries
                if (
                    isinstance(target, ast.Name)
                    and target.id == "__all__"
                    and isinstance(value, (ast.List, ast.Tuple))
                ):
                    info.exports = [
                        elt.value
                        for elt in value.elts
                        if isinstance(elt, ast.Constant)
                        and isinstance(elt.value, str)
                    ]
            top_extractor._stmt(node)

    info.functions[top.qualname] = top
    return info
