"""End-to-end pipeline API and paper-shape integration checks.

The shape assertions here are the reproduction's acceptance criteria:
Base << SFT <= AssertSolver on pass@1, extremity mass grows with DPO,
and the pipeline report renders every artefact.
"""

import pytest

from repro.core.api import AssertSolverPipeline, PipelineConfig
from repro.eval.reporting import extremity_mass


@pytest.fixture(scope="module")
def tiny_pipeline():
    config = PipelineConfig(n_designs=40, bugs_per_design=3, seed=41,
                            n_samples=10, include_human=False,
                            include_baselines=True)
    pipeline = AssertSolverPipeline(config)
    pipeline.evaluate()
    return pipeline


class TestPipelineApi:
    def test_lazy_stages(self, tiny_pipeline):
        assert tiny_pipeline.bundle is not None
        assert tiny_pipeline.assertsolver is not None
        assert tiny_pipeline.benchmark is not None

    def test_all_models_evaluated(self, tiny_pipeline):
        results = tiny_pipeline.evaluate()
        for name in ("Base Model", "SFT Model", "AssertSolver",
                     "GPT-4", "o1-preview"):
            assert name in results

    def test_table3_shape_base_far_below_sft(self, tiny_pipeline):
        results = tiny_pipeline.table3_results()
        base = results["Base Model"].pass_at(1)
        sft = results["SFT Model"].pass_at(1)
        solver = results["AssertSolver"].pass_at(1)
        assert base < 0.3
        assert sft > base + 0.2
        assert solver >= sft - 0.1  # DPO must not regress pass@1 materially

    def test_fig3_shape_dpo_extremity(self, tiny_pipeline):
        results = tiny_pipeline.evaluate()
        sft_mass = extremity_mass(results["SFT Model"],
                                  tiny_pipeline.config.n_samples)
        dpo_mass = extremity_mass(results["AssertSolver"],
                                  tiny_pipeline.config.n_samples)
        assert dpo_mass >= sft_mass - 0.1

    def test_report_renders_everything(self, tiny_pipeline):
        report = tiny_pipeline.report()
        for marker in ("Table I", "Table II", "Table III", "Table IV",
                       "Fig 3", "Fig 4", "Fig 5"):
            assert marker in report

    def test_repro_package_exports(self):
        import repro

        assert repro.AssertSolverPipeline is AssertSolverPipeline
        assert repro.PipelineConfig is PipelineConfig

    def test_shared_pipeline_cache(self):
        from repro.core.api import shared_pipeline

        config = PipelineConfig(n_designs=40, bugs_per_design=3, seed=41,
                                n_samples=10, include_human=False)
        assert shared_pipeline(config) is shared_pipeline(config)


class TestSemanticCheckExtension:
    def test_golden_fix_passes_semantic_check(self, tiny_pipeline):
        from repro.eval.runner import semantic_check
        from repro.model.assertsolver import SolverResponse

        cases = tiny_pipeline.build_benchmark().machine
        if not cases:
            pytest.skip("no machine cases at this scale")
        case = cases[0]
        record = case.record
        golden = SolverResponse(record.line, record.buggy_line,
                                record.fixed_line)
        assert semantic_check(golden, case)

    def test_noop_fix_fails_semantic_check(self, tiny_pipeline):
        from repro.eval.runner import semantic_check
        from repro.model.assertsolver import SolverResponse

        cases = tiny_pipeline.build_benchmark().machine
        if not cases:
            pytest.skip("no machine cases at this scale")
        case = cases[0]
        record = case.record
        noop = SolverResponse(record.line, record.buggy_line,
                              record.buggy_line)
        assert not semantic_check(noop, case)
