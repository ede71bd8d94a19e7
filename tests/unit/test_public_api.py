"""Regression net over the public API surface.

Downstream code imports from the package roots; this test freezes the
promises so a refactor cannot silently drop them.
"""

import pytest

import repro


class TestTopLevelAPI:
    def test_version(self):
        assert repro.__version__

    @pytest.mark.parametrize("name", [
        "Monitor", "OfflineAnalyzer", "OptimizationResult", "ProfiledRun",
        "AnalysisReport", "StructureAdvice", "SplitPlan", "StructType",
        "HierarchyConfig", "MemoryHierarchy", "RunMetrics",
        "PEBSLoadLatencySampler", "IBSSampler", "SamplingEngine",
        "ThreadProfile", "apply_split", "derive_plans", "gcd_stride",
        "optimize", "simulate",
    ])
    def test_core_names_exported(self, name):
        assert hasattr(repro, name), name
        assert name in repro.__all__

    def test_all_entries_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name


class TestSubpackageAPI:
    @pytest.mark.parametrize("module,names", [
        ("repro.layout", ["StructType", "SplitPlan", "ArrayOfStructs",
                          "apply_split", "maximal_plan", "identity_plan"]),
        ("repro.program", ["WorkloadBuilder", "Interpreter", "parse_workload",
                           "Loop", "Access", "MemoryAccess"]),
        ("repro.binary", ["find_loops", "LoopMap", "SymbolTable",
                          "emit_structure", "parse_structure"]),
        ("repro.memsim", ["MemoryHierarchy", "SetAssociativeCache",
                          "MESIDirectory", "TLBConfig", "simulate",
                          "speedup", "miss_reduction"]),
        ("repro.sampling", ["PEBSLoadLatencySampler", "IBSSampler",
                            "DEARSampler", "OverheadModel", "save_samples",
                            "load_samples"]),
        ("repro.profiler", ["Monitor", "ThreadProfile",
                            "reduction_tree_merge", "profile_processes",
                            "DataObjectRegistry"]),
        ("repro.core", ["OfflineAnalyzer", "optimize", "derive_plans",
                        "gcd_stride", "compute_affinities",
                        "recommend_regrouping", "write_outputs",
                        "code_centric_view", "data_centric_view"]),
        ("repro.baselines", ["FrequencyAffinityProfiler", "AslopProfiler",
                             "ReuseDistanceProfiler",
                             "BurstySamplingProfiler"]),
        ("repro.workloads", ["ArtWorkload", "TABLE2_WORKLOADS",
                             "all_workloads", "RegroupingWorkload"]),
        ("repro.experiments", ["run_all", "table3", "table4",
                               "run_art_analysis", "run_suite_overheads",
                               "run_accuracy_sweep",
                               "run_complete_evaluation"]),
    ])
    def test_subpackage_exports(self, module, names):
        import importlib

        mod = importlib.import_module(module)
        for name in names:
            assert hasattr(mod, name), f"{module}.{name}"

    def test_every_public_item_has_a_docstring(self):
        import importlib
        import inspect

        for module_name in ("repro.layout", "repro.program", "repro.binary",
                            "repro.memsim", "repro.sampling", "repro.profiler",
                            "repro.core", "repro.baselines", "repro.workloads",
                            "repro.experiments"):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                obj = getattr(module, name)
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    assert obj.__doc__, f"{module_name}.{name} lacks a docstring"

    @pytest.mark.parametrize("module,names", [
        ("repro.experiments", ["run_bench", "check_regression",
                               "write_bench"]),
        ("repro.telemetry", ["history"]),
    ])
    def test_removed_bench_surface_is_gone(self, module, names):
        """perfbench is the only timing harness: the ``repro bench``
        helpers and the bench history store are not exported, and the
        modules that held them do not exist."""
        import importlib
        import importlib.util

        mod = importlib.import_module(module)
        for name in names:
            assert not hasattr(mod, name), f"{module}.{name}"
            assert name not in getattr(mod, "__all__", [])
        for gone in ("repro.experiments.bench", "repro.telemetry.history"):
            assert importlib.util.find_spec(gone) is None, gone
