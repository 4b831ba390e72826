"""Only the devices write flash state.

``ZNSDevice`` and ``PageMapFTL`` (``src/repro/flash/``) own NAND page
state, zone state and the host/flash traffic counters of ``FlashStats``
— the counters every WA and read-amplification figure divides.  An
engine or kernel that bumps them itself is a second writer free to
drift from the device's own accounting, so engines reach flash only
through device methods (bulk GET loops flush their deferred read counts
through ``record_reads``).  This test parses every module outside
``flash/`` and rejects:

- an assignment to ``read_count``, ``program_count``, ``erase_count``
  or ``write_pointer``;
- an assignment of a ``ZoneState`` to ``.state``;
- an assignment to a ``host_*`` / ``flash_*`` field of ``FlashStats``;
- a call of ``record_page_reads``, ``record_host_*``, ``record_erase``
  or ``record_gc``;
- a call of ``reset_zone``: engines reclaim zones through
  ``ZoneRegion.reclaim`` (``flash/region.py``);
- a writable view of, or a store into, ``nand._state`` /
  ``nand._payload`` (``np.frombuffer`` / ``memoryview`` over them, a
  subscript store through them or through a local bound to them).
"""

import ast
from dataclasses import fields
from pathlib import Path

from repro.flash.stats import FlashStats

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
DEVICE_PACKAGE = "flash/"

COUNTERS = {"read_count", "program_count", "erase_count", "write_pointer"}
TRAFFIC_FIELDS = {
    f.name for f in fields(FlashStats) if f.name.startswith(("host_", "flash_"))
}
RECORDERS = {"record_page_reads", "record_erase", "record_gc", "reset_zone"}
NAND_ARRAYS = {"_state", "_payload"}
VIEW_CALLS = {"frombuffer", "memoryview"}


def _is_nand_array(node):
    return isinstance(node, ast.Attribute) and node.attr in NAND_ARRAYS


def _mentions_zone_state(node):
    return any(
        isinstance(sub, ast.Name) and sub.id == "ZoneState" for sub in ast.walk(node)
    )


def _store_targets(node):
    """The assigned expressions of an assignment statement, flattened."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return []
    out = []
    stack = list(targets)
    while stack:
        target = stack.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            stack.extend(target.elts)
        else:
            out.append(target)
    return out


def violations(tree):
    """``(line, reason)`` for every device-state write in ``tree``."""
    found = []
    # Locals bound to a NAND array anywhere in the module: a subscript
    # store through one is a store into the array.
    aliases = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and _is_nand_array(node.value)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    for node in ast.walk(tree):
        value = getattr(node, "value", None)
        for target in _store_targets(node):
            if isinstance(target, ast.Attribute):
                if target.attr in COUNTERS:
                    found.append((node.lineno, f"assigns .{target.attr}"))
                elif target.attr in TRAFFIC_FIELDS:
                    found.append((node.lineno, f"assigns FlashStats.{target.attr}"))
                elif target.attr == "state" and value is not None and _mentions_zone_state(value):
                    found.append((node.lineno, "assigns a ZoneState to .state"))
            elif isinstance(target, ast.Subscript):
                base = target.value
                if _is_nand_array(base) or (
                    isinstance(base, ast.Name) and base.id in aliases
                ):
                    found.append((node.lineno, "stores into a NAND array"))
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in RECORDERS or (name or "").startswith("record_host_"):
                found.append((node.lineno, f"calls {name}"))
            if name in VIEW_CALLS and node.args and _is_nand_array(node.args[0]):
                found.append((node.lineno, f"takes a {name} view of a NAND array"))
    return found


def test_only_the_devices_write_flash_state():
    stray = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith(DEVICE_PACKAGE):
            continue
        for line, reason in violations(ast.parse(path.read_text())):
            stray.append(f"{rel}:{line}: {reason}")
    assert not stray, (
        "write flash state through a device method, reset zones through "
        "ZoneRegion.reclaim: " + ", ".join(stray)
    )


def test_each_forbidden_form_is_caught():
    snippet = """
nand.read_count += n
zone.write_pointer = wp + take
zone.state = ZoneState.FULL if full else ZoneState.OPEN
stats.host_write_bytes += nbytes
a, stats.flash_read_bytes = 1, 2
stats.record_page_reads(n, 4096)
stats.record_host_write(4096)
stats.record_erase()
device.reset_zone(victim, now_us=now_us)
state = np.frombuffer(nand._state, dtype=np.uint8)
nand._payload[3] = None
alias = device.nand._state
alias[5] = 1
"""
    lines = [line for line, _ in violations(ast.parse(snippet))]
    assert sorted(lines) == [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14]


def test_reads_are_allowed():
    snippet = """
state = device.nand._state
ok = state[page] == PAGE_PROGRAMMED
wp = device.zones[z].write_pointer
full = zones[z].state is ZoneState.FULL
host = stats.host_write_bytes
stats.logical_read_bytes += 7
device.record_reads(n)
summary = FlashStats(host_write_bytes=3)
"""
    assert violations(ast.parse(snippet)) == []
