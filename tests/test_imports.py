"""What each entry point imports, and the public names that load lazily.

Package ``__init__`` modules resolve their re-exports on first use
(:mod:`repro._lazy`), so a serving or bulk process loads only the code
it runs.  These tests pin both halves: every public name still resolves
where it always did, and the serving, bulk and query entry points load
no training code.  Import checks run in a fresh interpreter each, so
the modules pytest and other tests loaded do not count.
"""

from __future__ import annotations

import importlib
import json
import os
import pickle
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro
from repro.core.pipeline import LanguageIdentifier
from tests.conftest import make_corpus

SRC = Path(repro.__file__).resolve().parent.parent

#: Packages whose ``__init__`` re-exports its subtree.
REEXPORTING = (
    "repro",
    "repro.algorithms",
    "repro.analysis",
    "repro.api",
    "repro.bulk",
    "repro.core",
    "repro.corpus",
    "repro.crawler",
    "repro.data",
    "repro.evaluation",
    "repro.experiments",
    "repro.features",
    "repro.humans",
    "repro.linkgraph",
    "repro.obs",
    "repro.query",
    "repro.store",
    "repro.testing",
    "repro.urls",
)

#: Packages whose re-exports load on first use.
LAZY = ("repro", "repro.algorithms", "repro.api", "repro.core",
        "repro.query", "repro.store")

#: Modules only training, corpus generation and evaluation run (a
#: package entry covers its submodules).
TRAINING_ONLY = (
    "repro.algorithms.naive_bayes",
    "repro.algorithms.decision_tree",
    "repro.algorithms.knn",
    "repro.algorithms.maxent",
    "repro.algorithms.rank_order",
    "repro.algorithms.relative_entropy",
    "repro.core.combination",
    "repro.core.selection",
    "repro.core.training",
    "repro.corpus.generator",
    "repro.datasets",
    "repro.evaluation",
    "repro.humans",
)


def run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this checkout;
    return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True, timeout=120,
    ).stdout


def modules_after(statement: str) -> set[str]:
    """The modules a fresh interpreter holds after ``statement``."""
    return set(run_fresh(
        f"{statement}\nimport sys\nprint('\\n'.join(sys.modules))\n"
    ).split())


def training_modules(modules: set[str]) -> list[str]:
    return sorted(
        module for module in modules
        if any(module == name or module.startswith(name + ".")
               for name in TRAINING_ONLY)
    )


class TestPublicNames:
    @pytest.mark.parametrize("package", REEXPORTING)
    def test_every_exported_name_resolves_and_is_listed(self, package):
        module = importlib.import_module(package)
        star: dict = {}
        exec(f"from {package} import *", star)
        listed = dir(module)
        for name in module.__all__:
            value = getattr(module, name)
            assert name in listed, name
            assert star[name] is value, name
            if isinstance(value, (type, types.FunctionType)):
                # The object its defining module holds, not a copy.
                home = sys.modules[value.__module__]
                assert getattr(home, name) is value, name

    @pytest.mark.parametrize("package", REEXPORTING)
    def test_an_unknown_name_is_an_attribute_error(self, package):
        module = importlib.import_module(package)
        assert not hasattr(module, "no_such_name")
        assert not hasattr(module, "no.such.name")
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(module, "no_such_name")

    @pytest.mark.parametrize("package", LAZY)
    def test_names_resolve_in_a_fresh_interpreter(self, package):
        """``from <package> import *`` with nothing else imported: no
        import cycle hides behind a lazy name."""
        unbound = run_fresh(
            f"import {package} as package\n"
            f"names = {{}}\n"
            f"exec('from {package} import *', names)\n"
            "print(*(n for n in package.__all__ if n not in names))\n"
        )
        assert unbound.split() == []

    def test_a_submodule_resolves_as_an_attribute(self):
        assert run_fresh(
            "import repro\nprint(repro.store.daemon.__name__)\n"
        ).strip() == "repro.store.daemon"

    def test_compile_support_is_unchanged(self):
        from repro.algorithms import compile_support

        assert compile_support() == {
            "NB": True, "DT": False, "RE": True, "ME": True,
            "kNN": False, "RO": True, "MM": True, "ME:iis": False,
        }

    def test_a_pickled_identifier_loads_after_importing_only_the_api(
        self, tmp_path
    ):
        identifier = LanguageIdentifier("words", "NB").fit(
            make_corpus({"en": 6, "de": 6, "fr": 6, "es": 6, "it": 6})
        )
        path = tmp_path / "model.pkl"
        path.write_bytes(pickle.dumps(identifier))
        urls = ["http://www.blumen-haus.de/garten9.html",
                "http://www.noticias.es/paginas3.html"]
        loaded = run_fresh(
            "import json, pickle\n"
            "import repro.api\n"
            f"model = pickle.loads(open({str(path)!r}, 'rb').read())\n"
            f"decisions = model.decisions({urls!r})\n"
            "print(json.dumps({l.value: v for l, v in decisions.items()}))\n"
        )
        assert json.loads(loaded) == {
            language.value: values
            for language, values in identifier.decisions(urls).items()
        }


class TestLazyExports:
    """The helper's rules, on a throwaway package."""

    @pytest.fixture()
    def package(self, tmp_path, monkeypatch):
        root = tmp_path / "lazypkg"
        root.mkdir()
        (root / "__init__.py").write_text(
            "from repro._lazy import lazy_exports\n"
            "__getattr__, __dir__ = lazy_exports(globals(), {\n"
            "    'Thing': 'lazypkg.things',\n"
            "    'Broken': 'lazypkg.broken',\n"
            "})\n"
        )
        (root / "things.py").write_text("class Thing:\n    pass\n")
        (root / "broken.py").write_text(
            "raise ImportError('a dependency is missing')\n"
        )
        (root / "plain.py").write_text("VALUE = 1\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        yield importlib.import_module("lazypkg")
        for name in [n for n in sys.modules if n.startswith("lazypkg")]:
            del sys.modules[name]

    def test_a_name_loads_its_module_on_first_use(self, package):
        assert "lazypkg.things" not in sys.modules
        assert package.Thing is sys.modules["lazypkg.things"].Thing
        assert "Thing" in vars(package)  # looked up once

    def test_a_submodule_name_resolves_to_the_submodule(self, package):
        assert package.plain.VALUE == 1

    def test_an_import_error_inside_a_module_propagates(self, package):
        with pytest.raises(ImportError, match="a dependency is missing"):
            package.Broken
        with pytest.raises(ImportError, match="a dependency is missing"):
            package.broken

    def test_dir_lists_the_table(self, package):
        assert {"Thing", "Broken"} <= set(dir(package))


class TestImportBudget:
    @pytest.mark.parametrize("entry", [
        "repro.store.daemon", "repro.bulk", "repro.query", "repro.cli",
    ])
    def test_serving_bulk_and_query_load_no_training_code(self, entry):
        assert training_modules(modules_after(f"import {entry}")) == []

    @pytest.mark.parametrize("entry", ["repro.bulk", "repro.query"])
    def test_bulk_and_query_load_no_daemon_or_asyncio(self, entry):
        loaded = modules_after(f"import {entry}")
        assert not loaded & {
            "asyncio", "http.server", "repro.store.daemon",
            "repro.store.client",
        }

    def test_bulk_loads_what_its_pool_workers_run(self):
        """The pool forks after ``import repro.bulk``: workers inherit
        the model-opening and scoring stack instead of importing it
        once each inside the run."""
        loaded = modules_after("import repro.bulk")
        assert {
            "repro.store.artifact", "repro.api.resolver", "repro.obs.trace",
        } <= loaded
