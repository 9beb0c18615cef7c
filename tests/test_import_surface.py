"""Lazy package exports: a request imports only the modules it runs.

Every facade ``__init__`` exports its names through
:func:`repro._lazy.lazy_exports`, so these checks run in fresh
interpreters: what ``import repro`` and one training ``submit`` load,
that import-time registries (pipeline schedules, store result types)
still fill, and that every facade's ``__all__`` resolves.
"""

import importlib
import json
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import repro
from repro._lazy import lazy_exports

SRC = Path(repro.__file__).resolve().parent

FACADES = sorted(
    f"repro.{path.parent.name}" for path in SRC.glob("*/__init__.py")
)


def run_fresh(*parts: str) -> object:
    """Run the code ``parts`` (each dedented) in a fresh interpreter
    with ``src`` on the path; the last line it prints is JSON, which is
    returned."""
    probe = f"import sys\nsys.path.insert(0, {str(SRC.parent)!r})\n"
    probe += "".join(textwrap.dedent(part) for part in parts)
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


LOADED = """
    import json
    print(json.dumps(sorted(
        name for name in sys.modules
        if name.split(".")[:2][-1] in {families!r}
    )))
"""


class TestFreshImports:
    def test_import_repro_loads_no_subsystem(self):
        families = ["serve", "chaos", "datacenter", "inferserve",
                    "optimize"]
        loaded = run_fresh("import repro\n",
                           LOADED.format(families=families))
        assert loaded == []

    def test_training_submit_loads_only_its_run_path(self):
        loaded = run_fresh("""
            import repro.api
            repro.api.submit(repro.api.SimRequest(
                model="gpt3-13b", cluster="mi250x32",
                parallelism="TP4-PP2", global_batch_size=8,
            ))
        """, LOADED.format(
            families=["serve", "chaos", "datacenter", "inferserve"]))
        assert loaded == ["repro.chaos", "repro.chaos.hooks"]

    def test_schedule_registry_fills_without_the_facade_import(self):
        names = run_fresh("""
            import json
            from repro.schedules.registry import (
                canonical_schedule_name,
                schedule_names,
            )
            print(json.dumps([canonical_schedule_name("1F1B"),
                              *schedule_names()]))
        """)
        assert names == ["1f1b", "1f1b", "gpipe", "interleaved", "seq1f1b",
                         "zb-h1"]

    def test_stored_serving_and_optimize_results_are_hits(self, tmp_path,
                                                          monkeypatch):
        # Result types register when their defining modules load; a
        # fresh interpreter that imported only repro.api must still
        # accept both from a warm store instead of quarantining them.
        from repro.api import OptimizeRequest, SimRequest, submit

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        requests = (
            SimRequest(kind="serving", model="llama3-70b",
                       cluster="h100x64",
                       serving={"trace": {"kind": "poisson",
                                          "duration_s": 10.0}}),
            OptimizeRequest(model="gpt3-13b", cluster="h100x64",
                            parallelisms=("TP2-PP8",),
                            schedules=("1f1b",), microbatch_sizes=(1,),
                            beam_width=1, refine_top=1,
                            global_batch_size=32),
        )
        for request in requests:
            submit(request)
        before = {
            str(path): path.stat().st_mtime_ns
            for path in (tmp_path / "store").rglob("*.pkl")
        }
        assert len(before) >= 2  # the search stores its probes too
        kinds = run_fresh(f"""
            import json
            import repro.api
            requests = [
                repro.api.SimRequest.from_json({requests[0].to_json()!r}),
                repro.api.OptimizeRequest.from_json(
                    {requests[1].to_json()!r}),
            ]
            print(json.dumps([
                type(repro.api.submit(request)).__name__
                for request in requests
            ]))
        """)
        assert kinds == ["ServingOutcome", "OptimizeResult"]
        after = {
            str(path): path.stat().st_mtime_ns
            for path in (tmp_path / "store").rglob("*.pkl")
        }
        assert after == before  # answered from the store, not rewritten
        assert list((tmp_path / "store").rglob("*.corrupt")) == []


class TestFacades:
    @pytest.mark.parametrize("name", FACADES)
    def test_every_export_resolves(self, name):
        package = importlib.import_module(name)
        for export in package.__all__:
            assert getattr(package, export) is not None, export
            assert export in dir(package), export
        with pytest.raises(AttributeError, match="no attribute"):
            getattr(package, "not_an_export")

    def test_root_exports_are_the_defining_objects(self):
        from repro.core.results import RunResult
        from repro.datacenter.placement import POLICIES
        from repro.inferserve.outcome import ServingOutcome
        from repro.optimize.request import OptimizeRequest

        assert repro.RunResult is RunResult
        assert repro.POLICIES is POLICIES
        assert repro.ServingOutcome is ServingOutcome
        assert repro.OptimizeRequest is OptimizeRequest


class TestLazyExports:
    def make(self):
        package = types.ModuleType("repro.fake")
        getattr_, dir_ = lazy_exports(vars(package), {
            "repro.units": ("GB",),
        })
        return package, getattr_, dir_

    def test_resolves_and_caches_in_the_namespace(self):
        from repro import units

        package, getattr_, _ = self.make()
        assert getattr_("GB") is units.GB
        assert vars(package)["GB"] is units.GB

    def test_a_name_matching_its_module_exports_the_submodule(self):
        name = run_fresh("""
            import json
            import repro.chaos
            print(json.dumps(repro.chaos.hooks.__name__))
        """)
        assert name == "repro.chaos.hooks"

    def test_unknown_names_raise_attribute_error(self):
        _, getattr_, dir_ = self.make()
        with pytest.raises(AttributeError,
                           match="module 'repro.fake' has no attribute 'x'"):
            getattr_("x")
        assert "GB" in dir_()
