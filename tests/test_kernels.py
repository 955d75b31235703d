import math

import numpy as np
import pytest

import oracles
from mono3dkit import kernels
from mono3dkit.errors import (
    DegenerateQueryError,
    EmptyInputError,
    NonPositiveDepthError,
    ShapeMismatchError,
)
from mono3dkit.kernels import (
    GRADIENT_ERROR_BOUND,
    BinSpec,
    GateParams,
    GaussianDepth,
    LossReport,
    MaskPair,
    bce_loss,
    bin_centers,
    consistency_loss,
    depth_kl,
    dice_loss,
    diversity_loss,
    finite_diff_check,
    l2_reg,
    outlier_filter,
    query_gate,
    region_loss,
    run_gradient_suite,
)


class TestQueryGate:
    def test_zero_weights_halve_queries(self):
        rng = np.random.default_rng(0)
        q = rng.normal(size=(2, 3, 4))
        params = GateParams(weight=np.zeros((4, 8)), bias=np.zeros(4))
        gated, _ = query_gate(q, np.zeros(4), params)
        assert np.allclose(gated, q / 2.0)

    def test_zero_queries_stay_zero(self):
        params = GateParams(weight=np.random.default_rng(1).normal(size=(4, 8)))
        gated, _ = query_gate(np.zeros((1, 2, 4)), np.ones(4), params)
        assert np.all(gated == 0.0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        q = rng.normal(size=(2, 3, 4))
        g = rng.normal(size=4)
        w = rng.normal(size=(4, 8)) / 2.0
        b = rng.normal(size=4) * 0.1
        cot = rng.normal(size=(2, 3, 4))

        def fn(queries, context, weight, bias):
            _, report = query_gate(queries, context, GateParams(weight, bias), grad_output=cot)
            return report

        err = finite_diff_check(fn, {"queries": q, "context": g, "weight": w, "bias": b})
        assert err < 1e-5

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            query_gate(np.zeros((1, 2, 4)), np.zeros(3), GateParams(weight=np.zeros((4, 8))))
        with pytest.raises(ShapeMismatchError):
            query_gate(np.zeros((1, 2, 4)), np.zeros(4), GateParams(weight=np.zeros((4, 7))))


class TestDiversityLoss:
    def test_identical_queries_give_one(self):
        q = np.tile(np.array([0.3, -1.2, 0.7]), (2, 5, 1))
        assert diversity_loss(q).value == pytest.approx(1.0, rel=1e-12)

    def test_orthogonal_queries_give_zero(self):
        q = np.eye(6)[None, :, :]
        assert diversity_loss(q).value == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_pairwise_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            q = rng.normal(size=(2, 4, 8)) + rng.uniform(0.5, 2.0)
            fast = diversity_loss(q).value
            slow = oracles.brute_force_diversity(q)
            assert abs(fast - slow) <= 1e-10 * max(1.0, abs(fast), abs(slow))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        q = rng.normal(size=(2, 4, 8))
        err = finite_diff_check(lambda queries: diversity_loss(queries), {"queries": q})
        assert err < 1e-5

    def test_value_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            value = diversity_loss(rng.normal(size=(3, 6, 4))).value
            assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12

    def test_single_query_flagged_zero(self):
        report = diversity_loss(np.ones((2, 1, 4)))
        assert report.value == 0.0
        assert np.all(report.grads["queries"] == 0.0)
        assert "single-query" in report.notes

    def test_zero_norm_rejected(self):
        q = np.ones((1, 3, 4))
        q[0, 1] = 0.0
        with pytest.raises(DegenerateQueryError):
            diversity_loss(q)


class TestBinCenters:
    def test_uniform_deltas_give_uniform_bins(self):
        centers, _ = bin_centers(BinSpec(delta=np.zeros(4), depth_min=2.0, depth_max=46.0))
        assert np.allclose(centers, [13.0, 24.0, 35.0, 46.0], rtol=1e-12)

    def test_last_center_pinned_to_depth_max(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(1, 33))
            spec = BinSpec(delta=rng.uniform(-5, 5, size=n), depth_min=2.0, depth_max=46.8)
            centers, _ = bin_centers(spec)
            assert abs(centers[-1] - 46.8) <= 1e-9 * 46.8
            assert np.all(np.diff(centers) > 0)
            assert np.all(centers > 2.0) and np.all(centers <= 46.8 + 1e-9)

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        delta = rng.uniform(-2, 2, size=8)
        spec = BinSpec(delta=delta, depth_min=2.0, depth_max=46.8)
        _, jac = bin_centers(spec)
        h = 1e-6
        for j in range(8):
            dp, dm = np.array(delta), np.array(delta)
            dp[j] += h
            dm[j] -= h
            col = (
                bin_centers(BinSpec(delta=dp, depth_min=2.0, depth_max=46.8))[0]
                - bin_centers(BinSpec(delta=dm, depth_min=2.0, depth_max=46.8))[0]
            ) / (2 * h)
            assert np.allclose(jac[:, j], col, rtol=1e-5, atol=1e-8)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            BinSpec(delta=np.zeros(0), depth_min=2.0, depth_max=46.8)
        with pytest.raises(ValueError):
            BinSpec(delta=np.zeros(4), depth_min=5.0, depth_max=5.0)


class TestDepthKL:
    def test_zero_at_matching_distributions(self):
        assert depth_kl(GaussianDepth(mean=7.0, std=0.1, target=7.0, target_std=0.1)).value == 0.0

    def test_e_scaled_std(self):
        value = depth_kl(GaussianDepth(mean=7.0, std=math.e * 0.1, target=7.0, target_std=0.1)).value
        assert value == pytest.approx(0.5 + 1.0 / (2.0 * math.e**2), rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            gd = GaussianDepth(
                mean=float(rng.uniform(0.1, 60)),
                std=float(rng.uniform(1e-3, 5)),
                target=float(rng.uniform(0.1, 60)),
                target_std=float(rng.uniform(1e-3, 5)),
            )
            assert depth_kl(gd).value >= 0.0

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            target = float(rng.uniform(5, 30))

            def fn(mean, std):
                return depth_kl(GaussianDepth(mean=mean, std=std, target=target, target_std=0.1))

            err = finite_diff_check(
                fn, {"mean": float(rng.uniform(5, 30)), "std": float(rng.uniform(0.5, 3.0))}, h=1e-6
            )
            assert err < 1e-6

    def test_nonpositive_std_rejected(self):
        with pytest.raises(ValueError):
            GaussianDepth(mean=1.0, std=0.0, target=1.0, target_std=0.1)
        with pytest.raises(ValueError):
            GaussianDepth(mean=1.0, std=1.0, target=1.0, target_std=-0.1)


class TestMaskLosses:
    def test_dice_perfect_binary_overlap(self):
        mask = (np.arange(1024).reshape(32, 32) % 3 == 0).astype(float)
        assert dice_loss(MaskPair(mask, mask), smooth=1e-6).value <= 1e-6

    def test_dice_disjoint(self):
        p = np.zeros((8, 8))
        g = np.zeros((8, 8))
        p[0, 0] = 1.0
        g[7, 7] = 1.0
        assert dice_loss(MaskPair(p, g)).value == pytest.approx(1.0, abs=1e-6)

    def test_dice_range_and_permutation_invariance(self):
        rng = np.random.default_rng(10)
        p = rng.uniform(0, 1, size=64)
        g = rng.uniform(0, 1, size=64)
        value = dice_loss(MaskPair(p, g)).value
        assert 0.0 <= value <= 1.0 + 1e-9
        perm = rng.permutation(64)
        assert dice_loss(MaskPair(p[perm], g[perm])).value == pytest.approx(value, rel=1e-12)

    def test_dice_gradient(self):
        rng = np.random.default_rng(11)
        g = rng.uniform(0, 1, size=(6, 6))
        p = rng.uniform(0.05, 0.95, size=(6, 6))
        err = finite_diff_check(lambda pred: dice_loss(MaskPair(pred, g)), {"pred": p})
        assert err < 1e-5

    def test_bce_confident_correct(self):
        g = (np.arange(64).reshape(8, 8) % 2).astype(float)
        report = bce_loss(MaskPair(g, g), clip=1e-7)
        assert report.value == pytest.approx(-math.log(1.0 - 1e-7), rel=1e-6)

    def test_bce_uniform_half(self):
        g = np.random.default_rng(12).uniform(0, 1, size=(8, 8))
        assert bce_loss(MaskPair(np.full((8, 8), 0.5), g)).value == pytest.approx(math.log(2.0), rel=1e-12)

    def test_bce_gradient(self):
        rng = np.random.default_rng(13)
        g = rng.uniform(0, 1, size=(6, 6))
        p = rng.uniform(0.05, 0.95, size=(6, 6))
        err = finite_diff_check(lambda pred: bce_loss(MaskPair(pred, g)), {"pred": p})
        assert err < 1e-5

    def test_bce_gradient_is_zero_where_the_clip_saturates(self):
        clip = 1e-7
        p = np.array([0.0, clip, 0.5, 1.0 - clip, 1.0])
        grad = bce_loss(MaskPair(p, np.full(5, 0.3)), clip=clip).grads["pred"]
        assert grad[[0, 1, 3, 4]].tolist() == [0.0] * 4
        assert grad[2] == pytest.approx((-0.3 / 0.5 + 0.7 / 0.5) / 5)

    def test_mask_pair_validation(self):
        with pytest.raises(ShapeMismatchError):
            MaskPair(np.zeros((2, 2)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            MaskPair(np.full((2, 2), 1.5), np.zeros((2, 2)))
        with pytest.raises(EmptyInputError):
            MaskPair(np.zeros((0,)), np.zeros((0,)))

    @pytest.mark.parametrize("side", ["pred", "target"])
    def test_mask_pair_rejects_nan(self, side):
        masks = {"pred": [0.5, 0.5], "target": [0.5, 0.5]}
        masks[side] = [math.nan, 0.5]
        with pytest.raises(ValueError, match=f"{side} values must lie in"):
            MaskPair(**masks)


class TestRegionLoss:
    def test_perfect_binary_masks_leave_only_bce_term(self):
        mask = (np.arange(64).reshape(8, 8) % 2).astype(float)
        pair = MaskPair(mask, mask)
        combined = region_loss([pair]).value
        assert combined == pytest.approx(0.3 * bce_loss(pair).value, rel=1e-9)

    def test_dice_only_weights(self):
        rng = np.random.default_rng(14)
        pairs = [MaskPair(rng.uniform(0, 1, (4, 4)), rng.uniform(0, 1, (4, 4))) for _ in range(3)]
        expected = np.mean([dice_loss(p).value for p in pairs])
        assert region_loss(pairs, 1.0, 0.0).value == pytest.approx(expected, rel=1e-12)

    def test_default_weights(self):
        import inspect

        sig = inspect.signature(region_loss)
        assert sig.parameters["weight_dice"].default == 0.7
        assert sig.parameters["weight_bce"].default == 0.3

    def test_linear_in_weights(self):
        rng = np.random.default_rng(15)
        pairs = [MaskPair(rng.uniform(0.1, 0.9, (4, 4)), rng.uniform(0, 1, (4, 4)))]
        base = region_loss(pairs, 0.7, 0.3).value
        assert region_loss(pairs, 1.4, 0.6).value == pytest.approx(2.0 * base, rel=1e-12)

    def test_empty_scale_list_rejected(self):
        with pytest.raises(EmptyInputError):
            region_loss([])

    def test_gradient(self):
        rng = np.random.default_rng(16)
        g0 = rng.uniform(0, 1, (4, 4))
        g1 = rng.uniform(0, 1, (4, 4))

        def fn(pred_0, pred_1):
            return region_loss([MaskPair(pred_0, g0), MaskPair(pred_1, g1)])

        err = finite_diff_check(
            fn,
            {"pred_0": rng.uniform(0.1, 0.9, (4, 4)), "pred_1": rng.uniform(0.1, 0.9, (4, 4))},
        )
        assert err < 1e-5


class TestConsistencyLoss:
    def test_perfect_consistency(self):
        report = consistency_loss(dim3d=1.8, depth=9.0, fx=900.0, size2d=180.0)
        assert report.value == 0.0
        assert report.grads["dim3d"] == 0.0 and report.grads["depth"] == 0.0

    def test_quadratic_branch(self):
        # residual = 900 * 1.0 / 10 - 89.6 = 0.4, inside the transition point
        report = consistency_loss(dim3d=1.0, depth=10.0, fx=900.0, size2d=89.6, smooth_delta=1.0)
        assert report.value == pytest.approx(0.4**2 / 2.0, rel=1e-9)

    def test_linear_branch(self):
        # residual = 10, beyond the transition point but inside the clamp
        report = consistency_loss(dim3d=1.0, depth=10.0, fx=900.0, size2d=80.0, smooth_delta=1.0)
        assert report.value == pytest.approx(10.0 - 0.5, rel=1e-12)
        assert report.grads["dim3d"] == pytest.approx(900.0 / 10.0, rel=1e-12)

    def test_clamp_saturation_freezes_value_and_gradient(self):
        base = consistency_loss(dim3d=10.0, depth=2.0, fx=900.0, size2d=10.0, clamp_bound=50.0)
        moved = consistency_loss(dim3d=11.0, depth=2.0, fx=900.0, size2d=10.0, clamp_bound=50.0)
        assert base.value == moved.value
        assert base.grads["dim3d"] == 0.0 and base.grads["depth"] == 0.0

    def test_gradients_match_finite_differences(self):
        def fn(dim3d, depth):
            return consistency_loss(dim3d, depth, 900.0, 100.0)

        err = finite_diff_check(fn, {"dim3d": 1.3, "depth": 9.7})
        assert err < 1e-5

    def test_nonpositive_depth_rejected(self):
        with pytest.raises(NonPositiveDepthError):
            consistency_loss(1.0, 0.0, 900.0, 100.0)


class TestOutlierFilter:
    def test_constant_losses_all_kept(self):
        keep, tau = outlier_filter([3.0] * 7, k=2.0)
        assert keep.all()
        assert tau == 3.0

    def test_extreme_loss_dropped(self):
        keep, tau = outlier_filter([1.0, 1.0, 1.0, 1.0, 100.0], k=2.0)
        assert tau == pytest.approx(80.2, rel=1e-12)
        assert list(keep) == [True, True, True, True, False]

    def test_default_k_is_two(self):
        import inspect

        assert inspect.signature(outlier_filter).parameters["k"].default == 2.0

    def test_median_always_kept(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            losses = rng.exponential(2.0, size=int(rng.integers(1, 30)))
            keep, tau = outlier_filter(losses, k=float(rng.uniform(0, 3)))
            assert np.median(losses) <= tau
            assert keep.any()

    def test_k_zero_keeps_at_most_median(self):
        keep, tau = outlier_filter([1.0, 2.0, 3.0, 4.0, 5.0], k=0.0)
        assert tau == 3.0
        assert list(keep) == [True, True, True, False, False]

    def test_errors(self):
        with pytest.raises(EmptyInputError):
            outlier_filter([])
        with pytest.raises(ValueError):
            outlier_filter([1.0], k=-0.5)


class TestL2Reg:
    def test_zeros(self):
        report = l2_reg([np.zeros(4)], weight=0.5)
        assert report.value == 0.0

    def test_single_parameter(self):
        report = l2_reg([np.array([3.0])], weight=0.5)
        assert report.value == 4.5
        assert report.grads["param_0"][0] == 3.0

    def test_zero_weight(self):
        report = l2_reg([np.array([1.0, 2.0])], weight=0.0)
        assert report.value == 0.0
        assert np.all(report.grads["param_0"] == 0.0)

    def test_gradient(self):
        rng = np.random.default_rng(18)
        err = finite_diff_check(
            lambda param_0: l2_reg([param_0], weight=0.7), {"param_0": rng.normal(size=5)}
        )
        assert err < 1e-6


class TestFiniteDiffCheck:
    def test_constant_function_zero_error(self):
        def fn(x):
            return LossReport(value=1.0, grads={"x": np.zeros_like(np.asarray(x))})

        assert finite_diff_check(fn, {"x": np.ones(3)}) == 0.0

    def test_detects_wrong_gradient(self):
        def fn(x):
            return LossReport(value=float(np.sum(np.asarray(x) ** 2)), grads={"x": np.zeros_like(np.asarray(x))})

        assert finite_diff_check(fn, {"x": np.ones(2)}) > 0.1

    def test_invalid_step_rejected(self):
        with pytest.raises(ValueError):
            finite_diff_check(lambda x: LossReport(0.0, {}), {"x": np.ones(1)}, h=0.0)

    def test_nan_gradient_fails(self):
        def fn(x):
            return LossReport(value=float(np.sum(x**2)), grads={"x": np.where(x > 1.5, math.nan, 2.0 * x)})

        assert finite_diff_check(fn, {"x": np.array([1.0, 2.0, 1.0])}) == math.inf

    def test_nan_value_fails(self):
        def fn(x):
            value = float(np.sum(x**2))
            return LossReport(value=math.nan if x[1] != 2.0 else value, grads={"x": 2.0 * x})

        assert finite_diff_check(fn, {"x": np.array([1.0, 2.0, 1.0])}) == math.inf

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kernel", sorted(kernels._SUITE))
    def test_in_place_probes_match_copy_per_probe_oracle(self, monkeypatch, kernel, seed):
        real = kernels.finite_diff_check
        checked = []

        def both(fn, inputs):
            before = {name: np.array(x, copy=True) for name, x in inputs.items()}
            got = real(fn, inputs)
            for name, x in inputs.items():
                assert np.asarray(x).tobytes() == before[name].tobytes(), f"{name} was modified"
            checked.append((got, oracles.copy_per_probe_finite_diff_check(fn, inputs, h=1e-5)))
            return got

        monkeypatch.setattr(kernels, "finite_diff_check", both)
        rng = kernels._suite_rng(seed, kernel)
        for _ in range(2):
            kernels._SUITE[kernel](rng)
        assert len(checked) == 2
        for got, want in checked:
            assert got == want

    def test_caller_input_untouched_when_fn_raises_mid_probe(self):
        def fn(x):
            if x[0] != 1.0:
                raise RuntimeError("probe")
            return LossReport(value=float(x.sum()), grads={"x": np.ones_like(x)})

        x = np.array([1.0, 2.0])
        with pytest.raises(RuntimeError):
            finite_diff_check(fn, {"x": x})
        assert x.tolist() == [1.0, 2.0]

    def test_probed_scalar_inputs_reach_fn_as_floats(self):
        calls = []

        def fn(a, b):
            calls.append((type(a), type(b)))
            return LossReport(value=a * a * b, grads={"a": 2.0 * a * b, "b": a * a + 0.25})

        inputs = {"a": 1.5, "b": np.array(2.0)}
        err = finite_diff_check(fn, inputs)
        # base call, two probes of a, then two probes of b
        assert calls == [(float, np.ndarray)] * 3 + [(float, float)] * 2
        assert err == oracles.copy_per_probe_finite_diff_check(fn, inputs)
        assert err == pytest.approx(0.25 / 2.5)
        assert inputs["b"].shape == () and inputs["b"] == 2.0


class TestSigmoid:
    def test_matches_two_branch_formula_bit_for_bit(self):
        mags = [0.0, 1e-300, 1.0, 36.0, 710.0, 800.0, math.inf]
        x = np.array(mags + [-m for m in mags] + [math.nan])
        got, want = kernels._sigmoid(x), oracles.two_branch_sigmoid(x)
        # A NaN's sign bit carries no value; every other result must match exactly.
        number = ~np.isnan(want)
        assert got[number].tobytes() == want[number].tobytes()
        assert np.isnan(got[~number]).all()


class TestGradientSuite:
    def test_all_kernels_pass_bound(self):
        results = run_gradient_suite(seed=0, points=5)
        assert set(results) >= {
            "query_gate",
            "diversity_loss",
            "bin_centers",
            "depth_kl",
            "dice_loss",
            "bce_loss",
            "consistency_loss",
            "l2_reg",
        }
        assert all(err < GRADIENT_ERROR_BOUND for err in results.values())

    def test_deterministic(self):
        assert run_gradient_suite(seed=3, points=2) == run_gradient_suite(seed=3, points=2)

    def test_negative_seed_rejected_by_name(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            run_gradient_suite(seed=-1, points=1)

    def test_nan_gradient_is_reported_as_inf(self, monkeypatch):
        real = kernels.depth_kl

        def broken(gd):
            rep = real(gd)
            return LossReport(value=rep.value, grads={"mean": math.nan, "std": rep.grads["std"]})

        monkeypatch.setattr(kernels, "depth_kl", broken)
        results = run_gradient_suite(seed=0, points=3)
        assert results["depth_kl"] == math.inf
        assert all(err < GRADIENT_ERROR_BOUND for name, err in results.items() if name != "depth_kl")


class TestDeferredGradients:
    """Kernels build .grads on its first read, from the inputs as they were at the call."""

    def test_finite_diff_check_builds_gradients_once_on_the_base_report(self):
        calls = []

        def fn(x):
            def grads():
                calls.append(x.tobytes())
                return {"x": 2.0 * x}

            return LossReport(float((x * x).sum()), grads)

        x = np.array([1.0, -2.0, 0.5])
        assert finite_diff_check(fn, {"x": x}) < 1e-8
        assert calls == [x.tobytes()]

    @staticmethod
    def assert_same_grads(got, want):
        assert got.value == want.value
        assert list(got.grads) == list(want.grads)
        for name in want.grads:
            assert np.asarray(got.grads[name]).tobytes() == np.asarray(want.grads[name]).tobytes(), name

    def test_query_gate_ignores_later_mutation(self):
        rng = np.random.default_rng(20)
        arrays = [rng.normal(size=(2, 3, 4)), rng.normal(size=4), rng.normal(size=(4, 8)), rng.normal(size=4),
                  rng.normal(size=(2, 3, 4))]
        copies = [a.copy() for a in arrays]

        def call(q, g, w, b, cot):
            return query_gate(q, g, GateParams(w, b), grad_output=cot)[1]

        report = call(*arrays)
        for a in arrays:
            a += 1.0
        self.assert_same_grads(report, call(*copies))

    @pytest.mark.parametrize(
        "kernel", [dice_loss, bce_loss, lambda pair: region_loss([pair, pair])], ids=["dice", "bce", "region"]
    )
    def test_mask_kernels_ignore_later_mutation(self, kernel):
        rng = np.random.default_rng(21)
        pred, target = rng.uniform(0.05, 0.95, size=(2, 5, 5))
        copies = pred.copy(), target.copy()
        report = kernel(MaskPair(pred, target))
        pred[:] = 1.0 - pred
        target[:] = 0.5
        self.assert_same_grads(report, kernel(MaskPair(*copies)))

    def test_diversity_loss_ignores_later_mutation(self):
        q = np.random.default_rng(23).normal(size=(2, 4, 3))
        copy = q.copy()
        report = diversity_loss(q)
        q *= -2.0
        self.assert_same_grads(report, diversity_loss(copy))

    def test_mask_pair_holds_read_only_copies(self):
        pred, target = np.full(4, 0.5), np.zeros(4)
        pair = MaskPair(pred, target)
        assert pair.pred is not pred and pair.target is not target
        for arr in (pair.pred, pair.target):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        pred[0] = 1.0
        assert pair.pred.tolist() == [0.5] * 4

    def test_grads_read_twice_is_the_same_dict(self):
        report = diversity_loss(np.random.default_rng(22).normal(size=(1, 3, 4)))
        assert report.grads is report.grads

    def test_eager_construction_is_unchanged(self):
        grads = {"x": np.ones(2)}
        positional = LossReport(1.5, grads)
        assert (positional.value, positional.grads, positional.notes) == (1.5, grads, ())
        keyword = LossReport(value=2.0, grads=grads, notes=("flag",))
        assert keyword.grads is grads and keyword.notes == ("flag",)
        assert LossReport(0.0).grads == {}
        with pytest.raises(AttributeError):
            keyword.value = 3.0


class TestNaNFailsEveryGuard:
    """Each scalar guard rejects NaN with the message it gives an out-of-range value."""

    @pytest.mark.parametrize(
        "call, out_of_range, error, message",
        [
            (lambda v: consistency_loss(1.0, v, 900.0, 10.0), 0.0, NonPositiveDepthError, "depth must be > 0"),
            (lambda v: consistency_loss(1.0, 9.0, 900.0, 10.0, clamp_bound=v), 0.0, ValueError,
             "clamp_bound and smooth_delta must be > 0"),
            (lambda v: consistency_loss(1.0, 9.0, 900.0, 10.0, smooth_delta=v), 0.0, ValueError,
             "clamp_bound and smooth_delta must be > 0"),
            (lambda v: GaussianDepth(mean=1.0, std=v, target=1.0, target_std=0.1), 0.0, ValueError,
             "predicted std must be > 0"),
            (lambda v: GaussianDepth(mean=1.0, std=1.0, target=1.0, target_std=v), 0.0, ValueError,
             "target std must be > 0"),
            (lambda v: l2_reg([np.ones(2)], weight=v), -1.0, ValueError, "weight must be >= 0"),
            (lambda v: dice_loss(MaskPair(np.ones(2), np.ones(2)), smooth=v), 0.0, ValueError,
             "smooth must be > 0"),
            (lambda v: finite_diff_check(lambda x: LossReport(0.0, {}), {"x": np.ones(1)}, h=v), 0.0,
             ValueError, "h must be > 0"),
        ],
        ids=["depth", "clamp_bound", "smooth_delta", "std", "target_std", "l2_weight", "dice_smooth", "fd_step"],
    )
    @pytest.mark.parametrize("nan", [False, True], ids=["out_of_range", "nan"])
    def test_scalar_guard(self, call, out_of_range, error, message, nan):
        bad = math.nan if nan else out_of_range
        with pytest.raises(error, match=message):
            call(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_bin_spec_rejects_non_finite_delta(self, bad):
        with pytest.raises(ValueError, match="delta must be finite"):
            BinSpec(delta=np.array([0.0, bad, 1.0]), depth_min=2.0, depth_max=46.8)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_outlier_filter_rejects_non_finite_losses(self, bad):
        with pytest.raises(ValueError, match="losses must be finite"):
            outlier_filter([1.0, 2.0, bad])
