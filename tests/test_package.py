"""The package's lazy namespace, the engines each entry point loads, and
the demos.

Imports are process-wide, so every load check runs in a fresh interpreter.
"""

import importlib
import inspect
import json
import textwrap
from pathlib import Path

import pytest

import hardyhilbert
from hardyhilbert import seqspace
from conftest import fresh_python

ENGINES = {"bmoa", "hardyspace", "harness", "inequalities"}
MODULES = [f"hardyhilbert.{m}" for m in sorted(ENGINES | {"seqspace"})]


def fresh(code: str) -> str:
    """stdout of ``code`` run by a fresh interpreter."""
    run = fresh_python("-c", textwrap.dedent(code), timeout=60)
    assert run.code == 0, run.err.decode()
    return run.out.decode()


def engines_loaded(code: str) -> set[str]:
    """The engine modules in sys.modules once ``code`` has run, its own
    output silenced."""
    body = textwrap.indent(textwrap.dedent(code).strip(), "    ")
    out = fresh("import contextlib, io, json, sys\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"{body}\n"
                "print(json.dumps(sorted(m for m in sys.modules if m.startswith('hardyhilbert.'))))\n")
    return {m.split(".", 1)[1] for m in json.loads(out)} & ENGINES


@pytest.fixture(scope="module")
def sequence_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("seq") / "classic.csv"
    seqspace.write_sequence_csv(path, seqspace.classic_sequence(50))
    return str(path)


class TestEnginesLoaded:
    @pytest.mark.parametrize("code", ["import hardyhilbert.cli",
                                      "from hardyhilbert import seqspace"])
    def test_import_loads_no_engine(self, code):
        assert engines_loaded(code) == set()

    def test_kconst_loads_neither_harness_nor_inequalities(self):
        loaded = engines_loaded("""
            from hardyhilbert import cli
            assert cli.main(["kconst", "--rmax", "0.999"]) == 0
            """)
        assert "bmoa" in loaded
        assert not loaded & {"harness", "inequalities"}

    def test_xnorm_loads_no_engine(self, sequence_file):
        assert engines_loaded(f"""
            from hardyhilbert import cli
            assert cli.main(["xnorm", {sequence_file!r}]) == 0
            """) == set()

    def test_slowdecay_loads_no_engine(self):
        assert engines_loaded("""
            from hardyhilbert import cli
            assert cli.main(["slowdecay", "--r", "0.6", "--beta", "1.5", "--n", "1000"]) == 0
            """) == set()

    def test_a_usage_error_loads_no_engine(self, tmp_path):
        assert engines_loaded(f"""
            from hardyhilbert import cli
            assert cli.main(["xnorm", {str(tmp_path / "missing.csv")!r}]) == 2
            assert cli.main(["hilbert-norm", "--n-list", "4", "--method", "power"]) == 2
            """) == set()


class TestLazyNamespace:
    @pytest.mark.parametrize("name", [n for n in hardyhilbert.__all__ if n != "__version__"])
    def test_name_is_its_home_modules_object(self, name):
        value = getattr(hardyhilbert, name)
        holders = [m for m in map(importlib.import_module, MODULES) if name in vars(m)]
        assert holders and all(vars(m)[name] is value for m in holders)
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ in {m.__name__ for m in holders}

    def test_dir_lists_all(self):
        assert set(hardyhilbert.__all__) <= set(dir(hardyhilbert))

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            hardyhilbert.no_such_name
        assert not hasattr(hardyhilbert, "no_such_name")

    def test_star_import_binds_every_name(self):
        out = fresh("""
            from hardyhilbert import *
            import hardyhilbert
            print([n for n in hardyhilbert.__all__
                   if globals().get(n, None) is not getattr(hardyhilbert, n)])
            """)
        assert out == "[]\n"

    def test_submodules_import(self):
        out = fresh("""
            import sys
            import hardyhilbert
            harness = hardyhilbert.harness   # attribute access imports it too
            from hardyhilbert import bmoa, cli
            print([m.__name__ for m in (bmoa, cli, harness)
                   if sys.modules[m.__name__] is not m])
            """)
        assert out == "[]\n"


DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_without_floating_point_warnings(tmp_path, demo):
    run = fresh_python("-W", "error::RuntimeWarning", str(demo), cwd=tmp_path)
    assert run.code == 0, run.err.decode()


def test_demos_found():
    assert DEMOS
