"""Public-API snapshot: the importable surface cannot drift silently.

Pins ``repro.__all__``, the :class:`SimRequest` field list, and the
``repro.api`` callable signatures, and statically scans ``src/`` to
prove no internal module calls the deprecated legacy entrypoints —
they exist solely as shims for external callers.
"""

import ast
import inspect
from pathlib import Path

import repro
from repro.api import SimRequest, submit, submit_many

SRC = Path(repro.__file__).resolve().parent

#: The frozen export list. Additions are fine but deliberate: update
#: this snapshot in the same change that extends ``repro/__init__.py``.
EXPECTED_ALL = [
    "H100_X64",
    "H200_X32",
    "MI250_X32",
    "TABLE1_MODELS",
    "ArrivalConfig",
    "ClusterSpec",
    "ConfigSearchSpace",
    "FaultSpec",
    "FleetConfig",
    "FleetMetrics",
    "FleetOutcome",
    "KINDS",
    "POLICIES",
    "PowerCapConfig",
    "simulate_fleet",
    "power_failure",
    "ModelConfig",
    "MoEConfig",
    "OptimizationConfig",
    "OptimizeRequest",
    "OptimizeResult",
    "ParallelismConfig",
    "RunResult",
    "ServingConfig",
    "ServingOutcome",
    "SimRequest",
    "SweepPoint",
    "TraceConfig",
    "cached_run_inference",
    "cached_run_training",
    "cluster_names",
    "execute_serving",
    "get_cluster",
    "get_model",
    "minimal_model_parallel",
    "model_names",
    "normalize_by_best",
    "one_gpu_per_node",
    "parse_strategy",
    "run_inference",
    "run_sweep",
    "run_training",
    "submit",
    "submit_many",
    "valid_configs",
    "__version__",
]

EXPECTED_REQUEST_FIELDS = [
    "kind",
    "model",
    "cluster",
    "parallelism",
    "optimizations",
    "microbatch_size",
    "global_batch_size",
    "iterations",
    "warmup_iterations",
    "governor",
    "freq_setpoint",
    "power_limit_w",
    "fault_node",
    "fault_power_scale",
    "fault_time",
    "fault_duration",
    "fault_kind",
    "fault_severity",
    "timeout_s",
    "fleet",
    "serving",
    "pipeline_schedule",
    "seq_splits",
]

LEGACY_NAMES = {
    "run_training",
    "run_inference",
    "cached_run_training",
    "cached_run_inference",
    # Renamed when static routing moved into repro.inferserve; the
    # repro.inference.serving shim resolves it via a string table, so
    # nothing in src/ references the old spelling as a real name.
    "simulate_serving",
    # Renamed when the setpoint searches became the refinement stage of
    # the joint optimizer (repro.optimize, docs/optimize.md); the shims
    # are deleted, so no module may mention them at all.
    "search_energy_optimal",
    "sweep_setpoints",
    "search_serving_setpoint",
}

#: The only modules allowed to mention the legacy names: where the
#: shims are defined and the package facades that re-export them.
LEGACY_ALLOWLIST = {
    SRC / "__init__.py",
    SRC / "core" / "__init__.py",
    SRC / "core" / "experiment.py",
    SRC / "core" / "sweep.py",
}


class TestAllSnapshot:
    def test_all_matches_snapshot(self):
        assert repro.__all__ == EXPECTED_ALL

    def test_every_export_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_serve_surface(self):
        from repro import serve

        assert serve.__all__ == [
            "Broker",
            "BrokerConfig",
            "BrokerMetrics",
            "BrokerServer",
            "BrokerUnavailableError",
            "SimResponse",
            "WorkerPool",
            "analytic_estimate",
            "serve_worker",
        ]


class TestApiSignatures:
    def test_request_fields(self):
        import dataclasses

        names = [f.name for f in dataclasses.fields(SimRequest)]
        assert names == EXPECTED_REQUEST_FIELDS

    def test_submit_signature(self):
        signature = inspect.signature(submit)
        assert list(signature.parameters) == ["request", "cache"]
        assert signature.parameters["cache"].kind is (
            inspect.Parameter.KEYWORD_ONLY
        )
        assert signature.parameters["cache"].default is True

    def test_submit_many_signature(self):
        signature = inspect.signature(submit_many)
        assert list(signature.parameters) == [
            "requests", "jobs", "report",
        ]
        assert signature.parameters["jobs"].default == 1

    def test_request_round_trip_methods_exist(self):
        for method in ("to_dict", "from_dict", "to_json", "from_json",
                       "digest"):
            assert callable(getattr(SimRequest, method)), method


def _modules_referencing_legacy() -> list[tuple[Path, str]]:
    """(module, legacy name) pairs found by walking every src/ AST."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path in LEGACY_ALLOWLIST:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            found = None
            if isinstance(node, ast.Name) and node.id in LEGACY_NAMES:
                found = node.id
            elif isinstance(node, ast.Attribute) and (
                node.attr in LEGACY_NAMES
            ):
                found = node.attr
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.name.split(".")[-1] in LEGACY_NAMES:
                        found = alias.name
            if found:
                offenders.append((path.relative_to(SRC), found))
    return offenders


class TestNoInternalLegacyUse:
    def test_src_does_not_call_deprecated_entrypoints(self):
        offenders = _modules_referencing_legacy()
        assert offenders == [], (
            "internal modules must use repro.api, not the deprecation "
            f"shims: {offenders}"
        )

    def test_shims_still_live_in_allowlisted_modules(self):
        # Guards the allowlist itself from going stale: the shims are
        # still defined where the scan expects them.
        from repro.core import experiment, sweep

        assert experiment.run_training.__module__ == (
            "repro.core.experiment"
        )
        assert sweep.cached_run_training.__module__ == (
            "repro.core.sweep"
        )

    def test_serving_shim_resolves_with_warning(self):
        import sys
        import warnings

        from repro import api

        sys.modules.pop("repro.inference.serving", None)
        api._reset_deprecation_warnings()
        from repro.inference import serving as shim

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            config_cls = shim.ServingConfig
        from repro.inferserve import StaticRouterConfig

        assert config_cls is StaticRouterConfig
        assert any(
            issubclass(w.category, DeprecationWarning) for w in caught
        )
        # Same object through the package facade.
        import repro.inference as inference

        assert inference.simulate_serving is shim.simulate_serving
