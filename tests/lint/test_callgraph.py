"""Unit tests for the whole-program symbol table and call graph.

Covers the resolution strategies the deep rules lean on (self/param/
local/chained attribute calls, virtual dispatch through base-class
receivers) and cycle safety of the traversals.
"""

from repro.lint.deep.callgraph import build_project
from repro.lint.deep.dataflow import covered_fixpoint, reachable, shortest_path
from repro.lint.deep.symbols import extract_module, parse_suppression_comments


def project_from(sources: dict[str, str]):
    """Build a Project from {rel_path: source} without touching disk."""
    class_names = set()
    for source in sources.values():
        for line in source.splitlines():
            stripped = line.strip()
            if stripped.startswith("class "):
                class_names.add(stripped[6:].split("(")[0].split(":")[0].strip())
    modules = {
        rel: extract_module(
            rel, source, zone="other", project_class_names=class_names
        )
        for rel, source in sources.items()
    }
    return build_project(".", modules)


class TestAttributeCallResolution:
    def test_self_method_call_resolves_through_own_class(self):
        project = project_from(
            {
                "m.py": (
                    "class A:\n"
                    "    def f(self):\n"
                    "        return self.g()\n"
                    "    def g(self):\n"
                    "        return 1\n"
                )
            }
        )
        assert "m.A.g" in project.edges["m.A.f"]

    def test_annotated_param_fans_out_to_subclass_overrides(self):
        project = project_from(
            {
                "base.py": (
                    "class Base:\n"
                    "    def run(self):\n"
                    "        return 0\n"
                ),
                "sub.py": (
                    "from base import Base\n"
                    "class Sub(Base):\n"
                    "    def run(self):\n"
                    "        return 1\n"
                ),
                "drv.py": (
                    "from base import Base\n"
                    "def drive(engine: Base):\n"
                    "    return engine.run()\n"
                ),
            }
        )
        callees = set(project.edges["drv.drive"])
        # Virtual dispatch: the base method AND the override are callees.
        assert {"base.Base.run", "sub.Sub.run"} <= callees

    def test_local_construction_taints_the_receiver(self):
        project = project_from(
            {
                "m.py": (
                    "class Box:\n"
                    "    def get(self):\n"
                    "        return 1\n"
                    "def use():\n"
                    "    b = Box()\n"
                    "    return b.get()\n"
                )
            }
        )
        assert "m.Box.get" in project.edges["m.use"]

    def test_attribute_chain_folds_through_attr_types(self):
        project = project_from(
            {
                "m.py": (
                    "class Nand:\n"
                    "    def program(self):\n"
                    "        return 1\n"
                    "class Device:\n"
                    "    def __init__(self):\n"
                    "        self.nand = Nand()\n"
                    "class Engine:\n"
                    "    def __init__(self):\n"
                    "        self.device = Device()\n"
                    "    def write(self):\n"
                    "        return self.device.nand.program()\n"
                )
            }
        )
        assert "m.Nand.program" in project.edges["m.Engine.write"]

    def test_instantiation_edges_to_init(self):
        project = project_from(
            {
                "m.py": (
                    "class Box:\n"
                    "    def __init__(self):\n"
                    "        self.x = 1\n"
                    "def build():\n"
                    "    return Box()\n"
                )
            }
        )
        assert "m.Box.__init__" in project.edges["m.build"]


class TestCycleHandling:
    def test_recursive_call_graph_terminates(self):
        project = project_from(
            {
                "m.py": (
                    "def ping(n):\n"
                    "    return pong(n - 1)\n"
                    "def pong(n):\n"
                    "    return ping(n - 1)\n"
                )
            }
        )
        scope = reachable(project.edges, ["m.ping"])
        assert {"m.ping", "m.pong"} <= scope
        assert shortest_path(project.edges, ["m.ping"], "m.pong") == [
            "m.ping",
            "m.pong",
        ]

    def test_cyclic_class_bases_terminate(self):
        project = project_from(
            {
                "m.py": (
                    "class A(B):\n"
                    "    def f(self):\n"
                    "        return self.g()\n"
                    "class B(A):\n"
                    "    def g(self):\n"
                    "        return 1\n"
                )
            }
        )
        # MRO walk over the cyclic bases must not hang and still
        # resolves g through the cycle.
        assert "m.B.g" in project.edges["m.A.f"]

    def test_covered_fixpoint_on_cycle_is_uncovered(self):
        edges = {"a": ("b",), "b": ("a",)}
        uncovered = covered_fixpoint(
            edges, {"a", "b"}, needs_cover={"a"}, has_sink=set()
        )
        assert uncovered == {"a"}


class TestSuppressionComments:
    def test_docstring_mentions_do_not_register(self):
        source = (
            '"""Docs say use `# reprolint: disable=R001` inline."""\n'
            "x = 1  # reprolint: disable=R002\n"
        )
        comments = parse_suppression_comments(source)
        assert len(comments) == 1
        assert comments[0].codes == ["R002"]
        assert comments[0].effective_lines == [2]

    def test_comment_only_line_covers_the_next_line(self):
        source = "# reprolint: disable=R008\nx = 1\n"
        (comment,) = parse_suppression_comments(source)
        assert comment.effective_lines == [1, 2]
