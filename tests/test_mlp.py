import numpy as np
import pytest
from oracles import least_squares_fit, reference_train, scalar_mlp_forward

from gaitreg.errors import TrainError
from gaitreg.mlp import (
    DEFAULT_LAYER_DIMS,
    MlpModel,
    OptimizerState,
    TrainConfig,
    forward,
    gradient_check,
    init,
    loss_and_gradient,
    sgd_step,
    train,
)
from gaitreg.rng import SplitMix64


def random_batch(seed, n=8, d_in=6, d_out=2):
    stream = SplitMix64(seed)
    x = stream.uniform_block(n * d_in).reshape(n, d_in)
    y = stream.normal_block(n * d_out, 0.0, 5.0).reshape(n, d_out)
    return x, y


class TestInit:
    def test_same_seed_identical(self):
        a = init((6, 100, 100, 100, 2), 42)
        b = init((6, 100, 100, 100, 2), 42)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_shapes(self):
        model = init((6, 100), 1)
        assert model.weights[0].shape == (100, 6)
        assert model.biases[0].shape == (100,)

    def test_weights_within_bound_biases_zero(self):
        model = init((6, 100, 100, 100, 2), 3)
        for w, (fi, fo) in zip(model.weights, zip(model.layer_dims, model.layer_dims[1:])):
            bound = np.sqrt(6.0 / (fi + fo))
            assert np.abs(w).max() <= bound
            assert np.abs(w).max() > 0.5 * bound  # actually spread out
        for b in model.biases:
            assert np.all(b == 0.0)


class TestForward:
    def test_zero_parameters_map_to_zero(self):
        model = MlpModel(
            (6, 4, 2),
            [np.zeros((4, 6)), np.zeros((2, 4))],
            [np.zeros(4), np.zeros(2)],
        )
        assert np.array_equal(forward(model, np.ones((1, 6))), np.zeros((1, 2)))

    def test_single_unit_degenerate_net(self):
        # only hidden unit 0 is wired: output = w_out * relu(w_in . x + b)
        model = init((3, 4, 1), 5)
        for w in model.weights:
            w[:] = 0.0
        model.weights[0][0] = [0.5, -1.0, 2.0]
        model.biases[0][0] = 0.25
        model.weights[1][0, 0] = -3.0
        model.biases[1][0] = 1.0
        x = np.array([[1.0, 2.0, 0.5]])
        scalar = -3.0 * max(0.5 * 1 - 1.0 * 2 + 2.0 * 0.5 + 0.25, 0.0) + 1.0
        assert forward(model, x)[0, 0] == pytest.approx(scalar, abs=1e-15)

    def test_matches_independent_scalar_evaluator(self):
        model = init((6, 10, 7, 2), 11)
        x, _ = random_batch(21, n=5)
        batched = forward(model, x)
        for row in range(5):
            ref = scalar_mlp_forward(model.weights, model.biases, x[row])
            assert np.abs(batched[row] - ref).max() < 1e-12

    def test_batched_equals_single(self):
        # gemv vs gemm may differ in the last ulp; row-wise semantics only
        model = init((6, 20, 2), 13)
        x, _ = random_batch(22, n=4)
        batched = forward(model, x)
        for row in range(4):
            assert np.abs(forward(model, x[row : row + 1])[0] - batched[row]).max() < 1e-13


class TestLossAndGradient:
    def test_perfect_fit_zero_loss_zero_gradient(self):
        model = init((6, 8, 2), 2)
        x, _ = random_batch(30)
        y = forward(model, x)
        loss, (gw, gb) = loss_and_gradient(model, x, y, 0.0)
        assert loss == 0.0
        assert all(np.abs(g).max() < 1e-12 for g in gw + gb)

    def test_single_linear_layer_matches_least_squares_gradient(self):
        model = init((6, 2), 4)
        x, y = random_batch(31, n=12)
        _, (gw, gb) = loss_and_gradient(model, x, y, 0.0)
        resid = forward(model, x) - y
        expected_w = (x.T @ resid / 12).T
        expected_b = resid.sum(axis=0) / 12
        assert np.abs(gw[0] - expected_w).max() < 1e-12
        assert np.abs(gb[0] - expected_b).max() < 1e-12

    def test_finite_difference_agreement(self):
        model = init((6, 12, 9, 2), 6)
        x, y = random_batch(32)
        passed, max_rel = gradient_check(model, x, y, 1e-2, samples_per_tensor=20, seed=7)
        assert passed, f"max relative error {max_rel}"

    def test_tensor_whose_every_probe_straddles_a_kink_fails(self):
        # the hidden unit's pre-activation is exactly 0, so every probe of the first
        # layer's weight and bias crosses the kink; the output layer's probes agree
        model = MlpModel((1, 1, 1), [np.array([[0.5]]), np.array([[2.0]])],
                         [np.array([-0.5]), np.array([0.0])])
        x, y = np.array([[1.0]]), np.array([[3.0]])
        passed, max_rel = gradient_check(model, x, y, 0.0)
        assert not passed
        assert max_rel < 1e-6

    def test_l2_term_included(self):
        model = init((6, 4, 2), 8)
        x, _ = random_batch(33)
        y = forward(model, x)
        loss, (gw, _) = loss_and_gradient(model, x, y, 0.5)
        expected = 0.25 * sum(np.sum(w**2) for w in model.weights)
        assert loss == pytest.approx(expected, rel=1e-12)
        assert np.allclose(gw[0], 0.5 * model.weights[0], atol=1e-12)

    def test_permutation_invariance(self):
        model = init((6, 16, 2), 9)
        x, y = random_batch(34, n=32)
        loss_a, (gw_a, _) = loss_and_gradient(model, x, y, 1e-2)
        perm = SplitMix64(77).permutation(32)
        loss_b, (gw_b, _) = loss_and_gradient(model, x[perm], y[perm], 1e-2)
        assert loss_a == pytest.approx(loss_b, abs=1e-12)
        for a, b in zip(gw_a, gw_b):
            assert np.abs(a - b).max() < 1e-12


class TestSgdStep:
    def scalar_model(self, w):
        return MlpModel((1, 1), [np.array([[w]])], [np.array([0.0])])

    def test_zero_gradient_zero_velocity_fixed_point(self):
        model = self.scalar_model(1.0)
        state = OptimizerState.zeros_like(model)
        cfg = TrainConfig()
        sgd_step(model, state, ([np.zeros((1, 1))], [np.zeros(1)]), cfg)
        assert model.weights[0][0, 0] == 1.0

    def test_hand_computed_first_step(self):
        # v = 0.9*0 - 1e-4*0.51 = -5.1e-5 ; w = 1 + v = 0.999949
        model = self.scalar_model(1.0)
        state = OptimizerState.zeros_like(model)
        cfg = TrainConfig(learning_rate=1e-4, momentum=0.9)
        sgd_step(model, state, ([np.array([[0.51]])], [np.zeros(1)]), cfg)
        assert state.vel_weights[0][0, 0] == pytest.approx(-5.1e-5, rel=1e-12)
        assert model.weights[0][0, 0] == pytest.approx(0.999949, rel=1e-12)

    def test_momentum_amplifies_second_step(self):
        # with constant gradient, step 2 moves 1.9x as far as step 1
        model = self.scalar_model(0.0)
        state = OptimizerState.zeros_like(model)
        cfg = TrainConfig(learning_rate=1e-3, momentum=0.9)
        grads = ([np.array([[1.0]])], [np.zeros(1)])
        sgd_step(model, state, grads, cfg)
        first = model.weights[0][0, 0]
        sgd_step(model, state, grads, cfg)
        second = model.weights[0][0, 0] - first
        assert second == pytest.approx(1.9 * first, rel=1e-12)


class TestTrain:
    def test_trace_length_and_decrease(self, small_dataset, small_config):
        from gaitreg.preprocessing import apply_normalization, feature_rows, fit_normalization

        inputs, targets, _ = feature_rows(small_dataset, 6.0, 4)
        inputs = apply_normalization(inputs, fit_normalization(inputs))
        model = init((6, 30, 2), 15)
        cfg = TrainConfig(epochs=30)
        model, trace = train(model, inputs, targets, cfg)
        assert len(trace) == 30
        assert trace[-1] < trace[0]

    def test_identical_seeds_bit_identical(self):
        x, y = random_batch(40, n=64)
        cfg = TrainConfig(epochs=5, shuffle_seed=3)
        ma, _ = train(init((6, 10, 2), 1), x, y, cfg)
        mb, _ = train(init((6, 10, 2), 1), x, y, cfg)
        for wa, wb in zip(ma.weights, mb.weights):
            assert np.array_equal(wa, wb)

    def test_linear_net_approaches_least_squares_optimum(self):
        stream = SplitMix64(50)
        x = stream.uniform_block(200 * 6).reshape(200, 6)
        true_w = np.arange(12).reshape(2, 6) / 6.0
        y = x @ true_w.T + np.array([0.5, -1.0])
        y += stream.normal_block(400, 0.0, 0.05).reshape(200, 2)
        coef = least_squares_fit(x, y)
        optimum = float(np.mean((np.column_stack([x, np.ones(200)]) @ coef - y) ** 2))
        cfg = TrainConfig(
            epochs=400, learning_rate=0.05, momentum=0.9, l2_penalty=0.0, batch_size=32
        )
        model, _ = train(init((6, 2), 2), x, y, cfg)
        mse = float(np.mean((forward(model, x) - y) ** 2))
        assert mse <= optimum * 1.05

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_reported_with_epoch(self):
        x, y = random_batch(60, n=32)
        cfg = TrainConfig(epochs=50, learning_rate=1e6)
        with pytest.raises(TrainError, match="epoch"):
            train(init((6, 10, 2), 3), x, y * 1e3, cfg)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_pre_activation_names_epoch_and_layer(self):
        x, y = random_batch(61, n=8)
        model = init((6, 10, 2), 3)
        model.weights[1][0, :] = 1e308
        with pytest.raises(TrainError, match="epoch 0: non-finite values at layer 1"):
            train(model, x * 1e3, y, TrainConfig(epochs=2))

    @pytest.mark.parametrize(
        "dims, n, overrides",
        [
            ((6, 2), 48, {}),
            ((6, 10, 2), 48, {}),
            (DEFAULT_LAYER_DIMS, 48, {}),
            ((6, 10, 2), 45, {}),  # partial final batch of 13 rows
            ((6, 10, 2), 9, {"batch_size": 1}),
            ((6, 10, 2), 12, {"batch_size": 40}),
            ((6, 10, 2), 45, {"momentum": 0.0}),
            ((6, 10, 2), 45, {"l2_penalty": 0.0}),
        ],
    )
    def test_bit_identical_to_per_layer_reference(self, dims, n, overrides):
        x, y = random_batch(80, n=n)
        cfg = TrainConfig(epochs=3, learning_rate=1e-3, **overrides)
        model = init(dims, 4)
        arrays = model.weights + model.biases
        got, trace = train(model, x, y, cfg)
        want, want_trace = reference_train(init(dims, 4), x, y, cfg)
        assert all(a is b for a, b in zip(got.weights + got.biases, arrays))
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert np.array_equal(a, b)
        assert trace == pytest.approx(want_trace, rel=1e-12, abs=0.0)


class TestProperties:
    def test_l2_shrinks_weights_at_zero_data_loss(self):
        model = init((6, 8, 2), 20)
        x, _ = random_batch(70)
        y = forward(model, x)  # zero residual by construction
        before = sum(float(np.sum(w**2)) for w in model.weights)
        cfg = TrainConfig(l2_penalty=0.1)
        _, grads = loss_and_gradient(model, x, y, cfg.l2_penalty)
        sgd_step(model, OptimizerState.zeros_like(model), grads, cfg)
        after = sum(float(np.sum(w**2)) for w in model.weights)
        assert after < before

    def test_rectifier_rescaling_invariance(self):
        # scaling one hidden unit's inputs by c and outputs by 1/c leaves
        # the function unchanged (positive homogeneity of the rectifier)
        model = init((6, 10, 2), 21)
        x, _ = random_batch(71, n=16)
        base = forward(model, x)
        c = 3.7
        model.weights[0][4, :] *= c
        model.biases[0][4] *= c
        model.weights[1][:, 4] /= c
        assert np.abs(forward(model, x) - base).max() < 1e-9
