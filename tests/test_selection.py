"""The §5.1 selection-logic experiment (Figure 2)."""


from repro.bpu import haswell, skylake
from repro.core.selection import selector_learning_experiment
from repro.cpu import PhysicalCore


def run(preset, runs=25, **kwargs):
    return selector_learning_experiment(
        lambda: PhysicalCore(preset(), seed=3), runs=runs, **kwargs
    )


class TestSelectorLearning:
    def test_first_iteration_mispredicts_half(self):
        """Iteration 1: ~5 of 10 branches mispredicted."""
        result = run(skylake)
        assert 3.5 <= result.mispredictions[0] <= 6.5

    def test_curve_decreases_to_zero(self):
        result = run(skylake)
        assert result.mispredictions[-1] < 0.2
        assert result.mispredictions[0] > result.mispredictions[5]

    def test_convergence_in_paper_band(self):
        """The 2-level predictor takes over within ~5-7 repetitions."""
        for preset in (skylake, haswell):
            converged = run(preset).converged_by()
            assert converged is not None
            assert 2 <= converged <= 8

    def test_skylake_not_slower_than_haswell(self):
        """Figure 2: 'the Skylake processor learning the pattern slightly
        faster'."""
        sky = run(skylake, runs=40)
        has = run(haswell, runs=40)
        assert sum(sky.mispredictions) <= sum(has.mispredictions) + 1.0

    def test_result_metadata(self):
        result = run(skylake, runs=2, iterations=5)
        assert result.iterations == 5
        assert "skylake" in result.config_name

    def test_converged_by_none_when_never(self):
        result = run(skylake, runs=1, iterations=1)
        # One iteration of a fresh pattern can't be converged.
        assert result.converged_by(threshold=0.1) is None
