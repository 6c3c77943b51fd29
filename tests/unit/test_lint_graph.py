"""Tests for the whole-program import/call graph (repro._lint.graph)."""

from __future__ import annotations

import ast

from repro._lint import Module
from repro._lint.graph import ProjectGraph, module_name, render_chain


def make_modules(sources: dict[str, str]) -> list[Module]:
    return [
        Module(path=k, pkgpath=k, tree=ast.parse(v), source=v)
        for k, v in sources.items()
    ]


def build(sources: dict[str, str]) -> ProjectGraph:
    return ProjectGraph.build(make_modules(sources))


class TestModuleNaming:
    def test_plain_module(self):
        assert module_name("sim/loopsim.py") == "repro.sim.loopsim"

    def test_top_level_module(self):
        assert module_name("rng.py") == "repro.rng"

    def test_package_init(self):
        assert module_name("obs/__init__.py") == "repro.obs"

    def test_root_init(self):
        assert module_name("__init__.py") == "repro"


class TestAliases:
    def test_plain_and_asname_imports(self):
        graph = build({"sim/a.py": "import numpy as np\nimport os.path\n"})
        table = graph.aliases["repro.sim.a"]
        assert table["np"] == "numpy"
        assert table["os"] == "os"

    def test_relative_import_levels(self):
        graph = build(
            {
                "sim/a.py": (
                    "from ..obs import incr\n"
                    "from .events import run\n"
                    "from .. import obs\n"
                )
            }
        )
        table = graph.aliases["repro.sim.a"]
        assert table["incr"] == "repro.obs.incr"
        assert table["run"] == "repro.sim.events.run"
        assert table["obs"] == "repro.obs"

    def test_package_init_relative_base(self):
        graph = build({"obs/__init__.py": "from .metrics import incr\n"})
        assert graph.aliases["repro.obs"]["incr"] == "repro.obs.metrics.incr"

    def test_reexport_chase(self):
        graph = build(
            {
                "obs/__init__.py": "from .metrics import incr\n",
                "obs/metrics.py": "def incr(name):\n    pass\n",
                "sim/a.py": "from ..obs import incr\n",
            }
        )
        resolved = graph.resolve_name("repro.sim.a", "incr")
        assert resolved == "repro.obs.metrics.incr"
        assert resolved in graph.functions


class TestFunctionIndex:
    def test_functions_methods_nested_and_module(self):
        graph = build(
            {
                "sim/a.py": (
                    "def outer():\n"
                    "    def inner():\n"
                    "        pass\n"
                    "    return inner\n"
                    "class C:\n"
                    "    def method(self):\n"
                    "        pass\n"
                )
            }
        )
        fns = graph.functions
        assert "repro.sim.a.<module>" in fns
        assert "repro.sim.a.outer" in fns
        assert "repro.sim.a.outer.inner" in fns
        assert "repro.sim.a.C.method" in fns
        assert fns["repro.sim.a.C.method"].is_method
        assert fns["repro.sim.a.C.method"].class_name == "C"
        assert fns["repro.sim.a.outer"].nested == ["repro.sim.a.outer.inner"]

    def test_defs_inside_conditionals_indexed(self):
        graph = build(
            {
                "sim/a.py": (
                    "try:\n"
                    "    def f():\n"
                    "        pass\n"
                    "except ImportError:\n"
                    "    def f():\n"
                    "        pass\n"
                )
            }
        )
        assert "repro.sim.a.f" in graph.functions


class TestCallResolution:
    def test_same_module_call(self):
        graph = build({"sim/a.py": "def f():\n    g()\ndef g():\n    pass\n"})
        calls = graph.functions["repro.sim.a.f"].calls
        assert calls[0].targets == ("repro.sim.a.g",)

    def test_cross_module_call(self):
        graph = build(
            {
                "sim/a.py": "from .b import helper\ndef f():\n    helper()\n",
                "sim/b.py": "def helper():\n    pass\n",
            }
        )
        calls = graph.functions["repro.sim.a.f"].calls
        assert calls[0].targets == ("repro.sim.b.helper",)

    def test_self_method_call(self):
        graph = build(
            {
                "sim/a.py": (
                    "class C:\n"
                    "    def f(self):\n"
                    "        self.g()\n"
                    "    def g(self):\n"
                    "        pass\n"
                )
            }
        )
        calls = graph.functions["repro.sim.a.C.f"].calls
        assert calls[0].targets == ("repro.sim.a.C.g",)

    def test_constructor_call_links_init(self):
        graph = build(
            {
                "sim/a.py": (
                    "class C:\n"
                    "    def __init__(self):\n"
                    "        pass\n"
                    "def f():\n"
                    "    return C()\n"
                )
            }
        )
        calls = graph.functions["repro.sim.a.f"].calls
        assert calls[0].resolved == "repro.sim.a.C"
        assert calls[0].targets == ("repro.sim.a.C.__init__",)

    def test_method_name_fallback_for_polymorphism(self):
        graph = build(
            {
                "dls/base.py": (
                    "class Technique:\n"
                    "    def session(self, n):\n"
                    "        pass\n"
                ),
                "sim/a.py": "def f(technique):\n    technique.session(3)\n",
            }
        )
        calls = graph.functions["repro.sim.a.f"].calls
        assert calls[0].targets == ("repro.dls.base.Technique.session",)

    def test_generic_method_names_excluded_from_fallback(self):
        graph = build(
            {
                "dls/base.py": (
                    "class Registry:\n"
                    "    def get(self, k):\n"
                    "        pass\n"
                ),
                "sim/a.py": "def f(d):\n    d.get(3)\n",
            }
        )
        calls = graph.functions["repro.sim.a.f"].calls
        assert calls[0].targets == ()

    def test_external_call_canonicalized(self):
        graph = build(
            {"sim/a.py": "import numpy as np\ndef f():\n    np.zeros(3)\n"}
        )
        calls = graph.functions["repro.sim.a.f"].calls
        assert calls[0].resolved == "numpy.zeros"
        assert calls[0].targets == ()


class TestReachability:
    SOURCES = {
        "sim/a.py": (
            "from .b import mid\n"
            "def entry():\n"
            "    mid()\n"
        ),
        "sim/b.py": (
            "from ..obs.helpers import blocked\n"
            "def mid():\n"
            "    leaf()\n"
            "    blocked()\n"
            "def leaf():\n"
            "    pass\n"
        ),
        "obs/helpers.py": "def blocked():\n    pass\n",
    }

    def test_chains_recorded(self):
        graph = build(self.SOURCES)
        chains = graph.reachable(["repro.sim.a.entry"])
        assert chains["repro.sim.b.leaf"] == (
            "repro.sim.a.entry",
            "repro.sim.b.mid",
            "repro.sim.b.leaf",
        )

    def test_skip_predicate_prunes_modules(self):
        graph = build(self.SOURCES)
        chains = graph.reachable(
            ["repro.sim.a.entry"],
            skip=lambda m: m.pkgpath.startswith("obs/"),
        )
        assert "repro.obs.helpers.blocked" not in chains
        assert "repro.sim.b.leaf" in chains

    def test_nested_defs_count_as_reachable(self):
        graph = build(
            {
                "sim/a.py": (
                    "def entry():\n"
                    "    def inner():\n"
                    "        pass\n"
                    "    return inner\n"
                )
            }
        )
        chains = graph.reachable(["repro.sim.a.entry"])
        assert "repro.sim.a.entry.inner" in chains

    def test_render_chain_trims_prefix(self):
        assert (
            render_chain(("repro.sim.a.entry", "repro.sim.b.mid"))
            == "sim.a.entry -> sim.b.mid"
        )


class TestImportGraph:
    def test_internal_edges_only(self):
        graph = build(
            {
                "sim/a.py": "import numpy as np\nfrom .b import helper\n",
                "sim/b.py": "def helper():\n    pass\n",
            }
        )
        assert graph.module_imports["repro.sim.a"] == {"repro.sim.b"}
        assert graph.module_imports["repro.sim.b"] == set()
