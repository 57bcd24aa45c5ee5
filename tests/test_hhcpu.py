"""End-to-end tests for Algorithm HH-CPU."""

import numpy as np
import pytest

from repro.core import HHCPU, estimate_times, select_threshold, sweep_thresholds
from repro.formats import CSRMatrix
from repro.hardware.platform import platform_for_scale
from repro.scalefree import powerlaw_matrix, uniform_matrix
from repro.util.errors import ShapeError


@pytest.fixture(scope="module")
def sf():
    return powerlaw_matrix(800, alpha=2.4, target_nnz=4_000, hub_bias=0.5, rng=21)


@pytest.fixture(scope="module")
def sf_result(sf):
    return HHCPU(platform_for_scale(0.001)).multiply(sf, sf)


class TestCorrectness:
    def test_matches_scipy(self, sf, sf_result):
        S = sf.to_scipy()
        ref = (S @ S).toarray()
        np.testing.assert_allclose(sf_result.matrix.todense(), ref, rtol=1e-9)

    def test_rectangular_product(self):
        a = powerlaw_matrix(300, 200, alpha=2.5, target_nnz=1_500, rng=1)
        b = powerlaw_matrix(200, 250, alpha=2.5, target_nnz=1_000, rng=2)
        out = HHCPU(platform_for_scale(0.001), threshold_a=3, threshold_b=3).multiply(a, b)
        ref = (a.to_scipy() @ b.to_scipy()).toarray()
        np.testing.assert_allclose(out.matrix.todense(), ref, rtol=1e-9)

    def test_incompatible_shapes(self):
        a = CSRMatrix.empty((5, 4))
        b = CSRMatrix.empty((3, 5))
        with pytest.raises(ShapeError):
            HHCPU().multiply(a, b)

    @pytest.mark.parametrize("kernel", ["esc", "spa"])
    def test_kernel_choice_same_result(self, sf, kernel):
        out = HHCPU(platform_for_scale(0.001), kernel=kernel,
                    threshold_a=5, threshold_b=5).multiply(sf, sf)
        ref = (sf.to_scipy() @ sf.to_scipy()).toarray()
        np.testing.assert_allclose(out.matrix.todense(), ref, rtol=1e-9)

    def test_fixed_thresholds_respected(self, sf):
        out = HHCPU(platform_for_scale(0.001), threshold_a=7, threshold_b=9).multiply(sf, sf)
        assert out.details["thresholds"] == (7, 9)

    def test_result_is_valid_csr(self, sf_result):
        sf_result.matrix.validate()
        assert sf_result.matrix.has_sorted_indices


class TestDegenerateThresholds:
    def test_threshold_zero_all_cpu(self, sf):
        """t=0: every non-empty row is high-density; the GPU's Phase II
        product A_L x B_L is empty (paper: all work on the CPU)."""
        out = HHCPU(platform_for_scale(0.001), threshold_a=0, threshold_b=0).multiply(sf, sf)
        gpu_compute = [
            e for e in out.trace.events
            if "gpu:AL*BL" in e.label and e.meta.get("flops")
        ]
        assert not gpu_compute
        ref = (sf.to_scipy() @ sf.to_scipy()).toarray()
        np.testing.assert_allclose(out.matrix.todense(), ref, rtol=1e-9)

    def test_threshold_max_degenerates_to_gpu_path(self, sf):
        """t=max: no high rows; Phase II GPU does the whole product
        (paper: identical to [13]'s GPU algorithm)."""
        t = int(sf.row_nnz().max())
        out = HHCPU(platform_for_scale(0.001), threshold_a=t, threshold_b=t).multiply(sf, sf)
        part = out.details["partition"]
        assert part["A_H_rows"] == 0
        ref = (sf.to_scipy() @ sf.to_scipy()).toarray()
        np.testing.assert_allclose(out.matrix.todense(), ref, rtol=1e-9)


class TestResultRecord:
    def test_phases_present(self, sf_result):
        assert {"I", "II", "IV"} <= set(sf_result.phase_times)
        assert sf_result.total_time > 0

    def test_phase_fraction(self, sf_result):
        f = sf_result.phase_fraction("II")
        assert 0 <= f <= 1.0

    def test_device_busy_tracked(self, sf_result):
        assert any("Intel" in d for d in sf_result.device_busy)
        assert any("NVIDIA" in d for d in sf_result.device_busy)

    def test_workqueue_conservation(self, sf, sf_result):
        part = sf_result.details["partition"]
        # every A row is covered exactly once across II and III
        assert part["A_H_rows"] + part["A_L_rows"] == sf.nrows

    def test_summary_string(self, sf_result):
        s = sf_result.summary()
        assert "HH-CPU" in s and "nnz(C)" in s

    def test_speedup_over_self(self, sf_result):
        assert sf_result.speedup_over(sf_result) == pytest.approx(1.0)

    def test_merge_stats_present(self, sf_result):
        assert sf_result.merge_stats is not None
        assert sf_result.merge_stats.tuples_in >= sf_result.matrix.nnz


class TestThresholdSelection:
    def test_select_threshold_in_candidates(self, sf):
        pf = platform_for_scale(0.001)
        t_a, t_b = select_threshold(sf, sf, pf)
        assert t_a == t_b
        assert 0 <= t_a <= sf.row_nnz().max()

    def test_sweep_endpoints_degenerate(self, sf):
        pf = platform_for_scale(0.001)
        sweep = sweep_thresholds(sf, sf, pf)
        assert sweep[0].threshold_a == 0
        assert sweep[-1].threshold_a == int(sf.row_nnz().max())
        # t=0: GPU phase II is empty; t=max: CPU phase II is empty
        assert sweep[0].phase2_gpu <= sweep[0].phase2_cpu
        assert sweep[-1].phase2_cpu <= sweep[-1].phase2_gpu

    def test_estimate_times_total(self, sf):
        pf = platform_for_scale(0.001)
        est = estimate_times(sf, sf, 5, 5, pf)
        assert est.total == pytest.approx(est.phase2 + est.phase3 + est.phase4)

    def test_selected_near_best_real(self, sf):
        """The estimator's pick should be within a few x of the best
        fixed threshold's real simulated time (sanity, not optimality —
        at very small scales fixed overheads skew the estimator)."""
        auto = HHCPU(platform_for_scale(0.001)).multiply(sf, sf).total_time
        best = min(
            HHCPU(platform_for_scale(0.001), threshold_a=int(t), threshold_b=int(t))
            .multiply(sf, sf).total_time
            for t in (0, 3, 6, 12, int(sf.row_nnz().max()))
        )
        assert auto <= 4.0 * best


def _operand_pairs():
    sq = powerlaw_matrix(800, alpha=2.4, target_nnz=4_000, hub_bias=0.5, rng=21)
    rect_a = powerlaw_matrix(300, 200, alpha=2.5, target_nnz=1_500, rng=1)
    rect_b = powerlaw_matrix(200, 250, alpha=2.5, target_nnz=1_000, rng=2)
    return {
        "square": (sq, sq),
        "rectangular": (rect_a, rect_b),
        "uniform": (uniform_matrix(400, mean_nnz=3.0, rng=9),) * 2,
        "empty-rows": (CSRMatrix.from_dense(np.diag([0.0, 1.0, 0.0, 2.0])),) * 2,
    }


class TestQuadrantStatsEquivalence:
    """``ProductProfile.quadrant_stats`` is ``stats_for`` on the four
    threshold masks, field for field and byte for byte."""

    @pytest.mark.parametrize("pair", sorted(_operand_pairs()))
    def test_matches_stats_for(self, pair):
        from repro.core.threshold import ProductProfile

        a, b = _operand_pairs()[pair]
        prof = ProductProfile(a, b)
        top = int(max(a.row_nnz().max(), b.row_nnz().max()))
        rng = np.random.default_rng(7)
        # on and off the candidate grid, past both ends, and t_A != t_B
        thresholds = [(-3, -1), (0, 0), (top, top), (top + 5, 2), (1, top + 9)]
        thresholds += [tuple(int(t) for t in rng.integers(-2, top + 3, 2)) for _ in range(25)]
        for t_a, t_b in thresholds:
            got = prof.quadrant_stats(t_a, t_b)
            a_high = prof.a_sizes > t_a
            b_high = prof.b_sizes > t_b
            masks = {"HH": (a_high, b_high), "LL": (~a_high, ~b_high),
                     "LH": (~a_high, b_high), "HL": (a_high, ~b_high)}
            for quad, (am, bm) in masks.items():
                want = prof.stats_for(am, bm)
                have = got[quad]
                for f in ("flops", "a_entries", "total_work", "tuples_emitted",
                          "result_nnz", "bytes_read", "bytes_written"):
                    assert getattr(have, f) == getattr(want, f), (t_a, t_b, quad, f)
                assert have.row_work.dtype == want.row_work.dtype
                assert have.row_work.tobytes() == want.row_work.tobytes()
                for h, w in zip(have.b_reuse_curve, want.b_reuse_curve):
                    assert h.dtype == w.dtype and h.tobytes() == w.tobytes(), (t_a, t_b, quad)


class TestWorkUnitSizes:
    def test_invalid_unit_sizes(self):
        with pytest.raises(ValueError):
            HHCPU(cpu_rows=0)
        with pytest.raises(ValueError):
            HHCPU(gpu_rows=-5)

    def test_small_units_same_result(self, sf):
        out = HHCPU(platform_for_scale(0.001), cpu_rows=37, gpu_rows=113,
                    threshold_a=5, threshold_b=5).multiply(sf, sf)
        ref = (sf.to_scipy() @ sf.to_scipy()).toarray()
        np.testing.assert_allclose(out.matrix.todense(), ref, rtol=1e-9)


class TestUniformInput:
    def test_uniform_matrix_works(self):
        m = uniform_matrix(600, mean_nnz=3.0, rng=9)
        out = HHCPU(platform_for_scale(0.001)).multiply(m, m)
        ref = (m.to_scipy() @ m.to_scipy()).toarray()
        np.testing.assert_allclose(out.matrix.todense(), ref, rtol=1e-9)
