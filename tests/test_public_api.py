"""Public-API snapshot: the importable surface cannot drift silently.

Pins ``repro.__all__``, the :class:`SimRequest` field list, and the
``repro.api`` callable signatures, and statically scans ``src/``,
``tests/``, ``benchmarks/`` and ``examples/`` to prove nothing uses a
removed entrypoint, module or spelling.
"""

import ast
import inspect
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.api import SimRequest, submit, submit_many

SRC = Path(repro.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]

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
    "cluster_names",
    "execute_serving",
    "get_cluster",
    "get_model",
    "minimal_model_parallel",
    "model_names",
    "normalize_by_best",
    "one_gpu_per_node",
    "parse_strategy",
    "run_sweep",
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

#: Names of removed entrypoints; no module may mention them at all.
LEGACY_NAMES = {
    # The run shims and their warn-once machinery, replaced by
    # repro.api.submit (or execute_training/execute_inference/cached_run
    # for callers passing objects a request cannot carry).
    "run_training",
    "run_inference",
    "cached_run_training",
    "cached_run_inference",
    "legacy_run",
    "warn_deprecated",
    "_LEGACY_REPLACEMENTS",
    # Renamed when static routing moved into repro.inferserve.
    "simulate_serving",
    # Renamed when the setpoint searches became the refinement stage of
    # the joint optimizer (repro.optimize, docs/optimize.md).
    "search_energy_optimal",
    "sweep_setpoints",
    "search_serving_setpoint",
    # The per-rank op-list schedule API, replaced by repro.schedules.
    "one_f_one_b",
    "interleaved_1f1b",
    "schedule_for",
    "validate_schedule",
    "pipeline_bubble_fraction",
    "PipelineOp",
    # The scalar physics backend and its per-GPU telemetry sample; the
    # simulator has one physics path (VectorPhysics), and the scalar
    # model lives on only as tests/reference_physics.py.
    "ScalarPhysics",
    "reference_activity",
    "GpuSample",
    # The fork-per-request runner; every process fan-out now runs on
    # repro.serve.workers.WorkerPool.
    "run_supervised",
}

#: Removed modules: importing them (or anything under them) is barred.
#: ``repro.scheduling`` moved into ``repro.datacenter`` (``thermal_aware``,
#: ``adaptive``).
LEGACY_MODULES = (
    "repro.inference", "repro.engine.schedule", "repro.scheduling",
    "repro.thermal",
)

#: Removed keyword spellings: ``ParallelismConfig(interleaved=True)``
#: is ``pipeline_schedule="interleaved"``; ``SimSettings(fast_path=...)``
#: selected the removed scalar physics backend;
#: ``FaultPlan(supervised_kill_rate=...)`` targeted the removed
#: fork-per-request runner.
LEGACY_KEYWORDS = {"interleaved", "fast_path", "supervised_kill_rate"}

#: Every tree the scan covers.
SCANNED_ROOTS = {
    "src": SRC,
    "tests": ROOT / "tests",
    "benchmarks": ROOT / "benchmarks",
    "examples": ROOT / "examples",
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


def _barred_module(name: str) -> bool:
    return any(
        name == module or name.startswith(module + ".")
        for module in LEGACY_MODULES
    )


def _legacy_uses(path: Path) -> list[str]:
    """Removed names, modules and keywords one module's AST mentions."""
    found = []
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in LEGACY_NAMES:
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and (
            node.attr in LEGACY_NAMES
        ):
            found.append(node.attr)
        elif isinstance(node, ast.keyword) and node.arg in LEGACY_KEYWORDS:
            found.append(f"{node.arg}=")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _barred_module(alias.name):
                    found.append(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module:
            if _barred_module(node.module):
                found.append(node.module)
            for alias in node.names:
                if alias.name in LEGACY_NAMES or _barred_module(
                    f"{node.module}.{alias.name}"
                ):
                    found.append(f"{node.module}.{alias.name}")
    return found


def _offenders(root: Path) -> list[tuple[str, str]]:
    """(module, removed name) pairs found by walking every AST under
    ``root``."""
    return [
        (str(path.relative_to(root)), name)
        for path in sorted(root.rglob("*.py"))
        for name in _legacy_uses(path)
    ]


class TestNoInternalLegacyUse:
    def test_src_does_not_call_deprecated_entrypoints(self):
        offenders = _offenders(SRC)
        assert offenders == [], (
            f"src/ mentions removed entrypoints: {offenders}"
        )

    @pytest.mark.parametrize("tree", ["tests", "benchmarks", "examples"])
    def test_callers_do_not_use_removed_names(self, tree):
        offenders = _offenders(SCANNED_ROOTS[tree])
        assert offenders == [], (
            f"{tree}/ mentions removed entrypoints: {offenders}"
        )

    def test_scan_catches_each_removed_spelling(self, tmp_path):
        # Guards the scan itself: every barred form is reported.
        probe = tmp_path / "probe.py"
        probe.write_text(
            "import repro.inference\n"
            "from repro.engine import schedule\n"
            "from repro.core.sweep import cached_run_training\n"
            "repro.run_training()\n"
            "ParallelismConfig(interleaved=True)\n"
        )
        assert _legacy_uses(probe) == [
            "repro.inference",
            "repro.engine.schedule",
            "repro.core.sweep.cached_run_training",
            "run_training",
            "interleaved=",
        ]

    def test_removed_surface_is_gone(self):
        import dataclasses
        import importlib

        from repro import telemetry
        from repro.chaos.injection import FaultPlan
        from repro.core import parallel
        from repro.engine import physics
        from repro.engine.simulator import SimSettings
        from repro.parallelism.strategy import ParallelismConfig

        for module in LEGACY_MODULES:
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(module)
        for name in ("run_training", "run_inference",
                     "cached_run_training", "cached_run_inference"):
            assert not hasattr(repro, name), name
        assert "interleaved" not in {
            f.name for f in dataclasses.fields(ParallelismConfig)
        }
        assert "fast_path" not in {
            f.name for f in dataclasses.fields(SimSettings)
        }
        assert "supervised_kill_rate" not in {
            f.name for f in dataclasses.fields(FaultPlan)
        }
        for module, name in ((physics, "ScalarPhysics"),
                             (physics, "reference_activity"),
                             (telemetry, "GpuSample"),
                             (parallel, "run_supervised"),
                             (parallel, "ProcessPoolExecutor")):
            assert not hasattr(module, name), name


class TestImportSurface:
    def test_import_needs_only_declared_dependencies(self):
        """``import repro`` works with networkx unimportable (the package
        declares only numpy) and loads neither networkx nor the removed
        scalar thermal package."""
        probe = textwrap.dedent(f"""
            import sys

            class BlockNetworkx:
                def find_spec(self, name, path=None, target=None):
                    if name.split(".")[0] == "networkx":
                        raise ModuleNotFoundError(name)
                    return None

            sys.meta_path.insert(0, BlockNetworkx())
            sys.path.insert(0, {str(SRC.parent)!r})
            import repro
            print(sorted(
                name for name in sys.modules
                if name.split(".")[0] == "networkx"
                or name.startswith("repro.thermal")
            ))
        """)
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"
