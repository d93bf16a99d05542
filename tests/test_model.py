from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedbound.model import (
    Dataset,
    _loss_and_grad_stacked,
    finite_difference_gradient,
    gradient,
    init_params,
    loss,
    mlp_spec,
    param_dim,
    quadratic_spec,
    sgd_epoch_traced,
    shared_data_loss,
    softmax_spec,
)
from fedbound import model
from fedbound.rng import permutation_rows, spawn_rng


def shuffle(seed, n):
    """The row order a run's SGD epoch takes from ``seed``."""
    return spawn_rng("sgd", seed).permutation(n)


def toy_dataset(seed=0, n=12, dim=4, classes=3):
    rng = spawn_rng("toy", seed)
    return Dataset(rng.uniform(0, 1, (n, dim)), rng.integers(0, classes, n), classes)


def dummy_dataset(dim=2):
    # Quadratic-kind calls ignore the contents; only nonemptiness matters.
    return Dataset(np.full((1, dim), 0.5), np.zeros(1, dtype=np.int64), 1)


class TestParamDim:
    def test_softmax_counts_weights_and_biases(self):
        assert param_dim(softmax_spec(4, 3)) == 15

    def test_mlp_counts_both_layers(self):
        assert param_dim(mlp_spec(2, 2, 3)) == 17

    def test_cifar_sized_softmax(self):
        assert param_dim(softmax_spec(3072, 10)) == 30730

    def test_quadratic_equals_diag_length(self):
        assert param_dim(quadratic_spec([1.0, 2.0, 3.0])) == 3

    @pytest.mark.parametrize("h", [0.0, -1.0, math.nan, math.inf])
    def test_quadratic_curvature_must_be_finite_and_positive(self, h):
        with pytest.raises(ValueError, match="^quad_diag entries must be finite and positive$"):
            quadratic_spec([h, 1.0])


def _frozen_per_layer_init(spec, rng):
    """The per-layer ``rng.normal`` draws ``init_params`` made before it drew
    ``0.0 + init_scales(spec) * z``, kept verbatim as its oracle."""
    d, k, h = spec.feature_dim, spec.num_classes, spec.hidden_width
    if spec.kind == "softmax":
        return rng.normal(0.0, 1.0 / math.sqrt(d), k * d + k)
    if spec.kind == "mlp":
        first = rng.normal(0.0, 1.0 / math.sqrt(d), h * d + h)
        second = rng.normal(0.0, 1.0 / math.sqrt(h), k * h + k)
        return np.concatenate([first, second])
    dim = len(spec.quad_diag)
    return rng.normal(0.0, 1.0 / math.sqrt(dim), dim)


SPECS = st.one_of(
    st.builds(softmax_spec, st.integers(1, 40), st.integers(2, 12)),
    st.builds(mlp_spec, st.integers(1, 40), st.integers(2, 12), st.integers(1, 30)),
    st.builds(quadratic_spec, st.lists(st.floats(0.1, 10.0), min_size=1, max_size=30)),
)


class TestInitParams:
    @given(spec=SPECS, seed=st.integers(0, 2**63 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_frozen_per_layer_draws_bit_for_bit(self, spec, seed):
        drawn = init_params(spec, seed)
        assert drawn.tobytes() == _frozen_per_layer_init(spec, spawn_rng("init", seed)).tobytes()

    def test_deterministic_given_seed(self):
        spec = mlp_spec(5, 3, 4)
        np.testing.assert_array_equal(init_params(spec, 9), init_params(spec, 9))

    def test_different_seeds_differ(self):
        spec = softmax_spec(5, 3)
        assert np.any(init_params(spec, 1) != init_params(spec, 2))

    def test_zero_mean_at_large_dim(self):
        # 999 * 10 + 10 = 10000 entries, all at scale 1/sqrt(999).
        spec = softmax_spec(999, 10)
        params = init_params(spec, 3)
        assert params.size == 10_000
        stderr = (1.0 / math.sqrt(999)) / math.sqrt(params.size)
        assert abs(params.mean()) < 3 * stderr

    def test_layer_scales_follow_fan_in(self):
        spec = mlp_spec(100, 10, 50)
        params = init_params(spec, 4)
        first = params[: 50 * 100]
        second = params[50 * 100 + 50 : 50 * 100 + 50 + 10 * 50]
        assert first.std() == pytest.approx(1.0 / math.sqrt(100), rel=0.1)
        assert second.std() == pytest.approx(1.0 / math.sqrt(50), rel=0.1)


class TestLoss:
    def test_zero_params_give_log_k(self):
        data = toy_dataset(classes=3)
        spec = softmax_spec(4, 3)
        assert loss(spec, np.zeros(param_dim(spec)), data) == pytest.approx(
            math.log(3), abs=1e-12
        )

    def test_l2_penalty_adds_quadratic_term(self):
        data = toy_dataset()
        plain = softmax_spec(4, 3, l2=0.0)
        ridged = softmax_spec(4, 3, l2=0.5)
        params = init_params(plain, 5)
        expected = loss(plain, params, data) + 0.25 * float(params @ params)
        assert loss(ridged, params, data) == pytest.approx(expected, rel=1e-12)

    def test_loss_nonnegative(self):
        data = toy_dataset()
        spec = mlp_spec(4, 3, 5)
        for seed in range(10):
            assert loss(spec, init_params(spec, seed), data) >= 0.0

    def test_coercive_with_l2(self):
        data = toy_dataset()
        spec = softmax_spec(4, 3, l2=0.1)
        direction = init_params(spec, 1)
        direction /= np.linalg.norm(direction)
        values = [loss(spec, radius * direction, data) for radius in (10.0, 100.0, 1000.0)]
        assert values[0] < values[1] < values[2]
        # The l2 term alone must dominate at large radius.
        assert values[2] > 0.5 * 0.1 * 1000.0 ** 2 * 0.99

    def test_sgd_decreases_loss_on_separable_data(self):
        rng = spawn_rng("separable", 0)
        n = 40
        labels = np.arange(n) % 2
        feats = np.clip(0.25 + 0.5 * labels[:, None] + 0.05 * rng.standard_normal((n, 3)), 0, 1)
        data = Dataset(feats, labels, 2)
        spec = softmax_spec(3, 2)
        params = init_params(spec, 0)
        losses = [loss(spec, params, data)]
        for epoch in range(30):
            params = sgd_epoch_traced(spec, params, data, 0.5, n, shuffle(epoch, n))[0]
            losses.append(loss(spec, params, data))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0]

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            loss(softmax_spec(4, 3), np.zeros(7), toy_dataset())

    def test_empty_dataset_rejected(self):
        spec = softmax_spec(4, 3)
        empty = Dataset(np.zeros((0, 4)), np.zeros(0, dtype=np.int64), 3)
        with pytest.raises(ValueError):
            loss(spec, np.zeros(param_dim(spec)), empty)


class TestGradient:
    def test_quadratic_identity_gradient_is_w(self):
        spec = quadratic_spec([1.0, 1.0, 1.0])
        w = np.array([0.3, -1.2, 2.0])
        np.testing.assert_allclose(gradient(spec, w, dummy_dataset(3)), w)

    @pytest.mark.parametrize("case", range(12))
    def test_matches_finite_differences(self, case):
        rng = spawn_rng("fd-cases", case)
        dim = int(rng.integers(2, 6))
        classes = int(rng.integers(2, 5))
        if case % 2:
            spec = mlp_spec(dim, classes, int(rng.integers(2, 5)), l2=float(rng.uniform(0, 0.3)))
        else:
            spec = softmax_spec(dim, classes, l2=float(rng.uniform(0, 0.3)))
        n = int(rng.integers(2, 9))
        data = Dataset(rng.uniform(0, 1, (n, dim)), rng.integers(0, classes, n), classes)
        params = init_params(spec, 100 + case)
        analytic = gradient(spec, params, data)
        numeric = finite_difference_gradient(spec, params, data)
        rel = np.abs(analytic - numeric).max() / max(np.abs(analytic).max(), 1e-8)
        assert rel <= 1e-5

    def test_gradient_small_at_converged_minimum(self):
        data = toy_dataset(n=30)
        spec = softmax_spec(4, 3, l2=0.05)
        params = init_params(spec, 2)
        for epoch in range(400):
            params = sgd_epoch_traced(spec, params, data, 0.5, 30, shuffle(epoch, 30))[0]
        assert np.linalg.norm(gradient(spec, params, data)) < 1e-3


class TestStrongConvexity:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_l2_softmax_lies_above_quadratic_lower_model(self, seed):
        lam = 0.2
        spec = softmax_spec(3, 3, l2=lam)
        data = toy_dataset(seed=1, dim=3)
        rng = spawn_rng("convexity", seed)
        u = rng.normal(0, 0.8, param_dim(spec))
        v = rng.normal(0, 0.8, param_dim(spec))
        lower = (
            loss(spec, v, data)
            + float((u - v) @ gradient(spec, v, data))
            + 0.5 * lam * float((u - v) @ (u - v))
        )
        assert loss(spec, u, data) >= lower - 1e-9


class TestSgdEpoch:
    def test_lr_zero_is_identity(self):
        data = toy_dataset()
        spec = softmax_spec(4, 3)
        params = init_params(spec, 7)
        np.testing.assert_array_equal(
            sgd_epoch_traced(spec, params, data, 0.0, 4, shuffle(1, len(data)))[0], params
        )

    def test_quadratic_full_batch_scales_by_one_minus_lr(self):
        spec = quadratic_spec([1.0, 1.0])
        data = dummy_dataset(2)
        w = np.array([2.0, -4.0])
        out = sgd_epoch_traced(spec, w, data, 0.1, len(data), shuffle(0, len(data)))[0]
        np.testing.assert_allclose(out, 0.9 * w, rtol=1e-15)

    def test_reproducible_bit_for_bit(self):
        data = toy_dataset(n=20)
        spec = mlp_spec(4, 3, 5)
        params = init_params(spec, 3)
        a = sgd_epoch_traced(spec, params, data, 0.1, 6, shuffle(42, len(data)))[0]
        b = sgd_epoch_traced(spec, params, data, 0.1, 6, shuffle(42, len(data)))[0]
        np.testing.assert_array_equal(a, b)

    def test_input_untouched(self):
        data = toy_dataset()
        spec = softmax_spec(4, 3)
        params = init_params(spec, 1)
        before = params.copy()
        sgd_epoch_traced(spec, params, data, 0.3, 4, shuffle(0, len(data)))[0]
        np.testing.assert_array_equal(params, before)

    def test_trace_has_one_norm_per_step(self):
        data = toy_dataset(n=10)
        spec = softmax_spec(4, 3)
        _, norms = sgd_epoch_traced(spec, init_params(spec, 0), data, 0.1, 4, shuffle(0, 10))
        assert norms.shape == (3,)  # ceil(10 / 4)
        assert (norms >= 0).all()

    def test_invalid_batch_rejected(self):
        data = toy_dataset(n=5)
        spec = softmax_spec(4, 3)
        with pytest.raises(ValueError):
            sgd_epoch_traced(spec, init_params(spec, 0), data, 0.1, 6, shuffle(0, 5))[0]
        with pytest.raises(ValueError):
            sgd_epoch_traced(spec, init_params(spec, 0), data, 0.1, 0, shuffle(0, 5))[0]

    def test_negative_lr_rejected(self):
        data = toy_dataset()
        spec = softmax_spec(4, 3)
        for lr in (-0.1, math.nan, math.inf):  # a NaN or inf step is no step size either
            with pytest.raises(ValueError, match="^lr must be finite and >= 0$"):
                sgd_epoch_traced(spec, init_params(spec, 0), data, lr, 4, shuffle(0, len(data)))

    @pytest.mark.parametrize("stack", [None, 3])
    def test_overflow_mid_epoch_raises(self, monkeypatch, stack):
        # On 0.5 * 2 * ||w||^2 an lr of 1e200 scales w by about -2e200 per
        # step: finite after step 1, infinite after step 2, so the gradient
        # call of step 3 rejects it.
        spec = quadratic_spec([2.0, 2.0])
        params, order, blocks = np.array([0.5, -1.0]), np.arange(6), 1
        if stack is not None:
            params, order, blocks = np.tile(params, (stack, 1)), np.tile(order, (stack, 1)), stack
        data = Dataset(np.full((6 * blocks, 2), 0.5), np.zeros(6 * blocks, dtype=np.int64), 1)
        calls = []
        monkeypatch.setattr(model, "gradient", lambda *args: calls.append(1) or gradient(*args))
        with pytest.raises(ValueError, match="non-finite"), np.errstate(over="ignore"):
            sgd_epoch_traced(spec, params, data, 1e200, 1, order)
        assert len(calls) == 3

    @pytest.mark.parametrize("stack", [None, 3])
    def test_overflow_on_last_step_raises(self, stack):
        # Two rows at batch 1: step 1 leaves about -2e200 * w, step 2 leaves
        # +-inf, and no later gradient call sees it, so the epoch must.
        spec = quadratic_spec([2.0, 2.0])
        params, order, blocks = np.array([0.5, -1.0]), np.arange(2), 1
        if stack is not None:
            params, order, blocks = np.tile(params, (stack, 1)), np.tile(order, (stack, 1)), stack
        data = Dataset(np.full((2 * blocks, 2), 0.5), np.zeros(2 * blocks, dtype=np.int64), 1)
        with pytest.raises(ValueError, match="non-finite parameters after 2 steps"):
            with np.errstate(over="ignore"):
                sgd_epoch_traced(spec, params, data, 1e200, 1, order)[0]

    @pytest.mark.parametrize("stack", [None, 4])
    def test_one_gradient_call_per_step(self, monkeypatch, stack):
        # Each step is one positional model.gradient(spec, stack, batch)
        # call: a (P, dim) stack (P = 1 for a vector) and a Dataset of the
        # step's rows, one block per stack row.
        spec = softmax_spec(4, 3)
        blocks = stack or 1
        params = np.stack([init_params(spec, s) for s in range(blocks)])
        if stack is None:
            params = params[0]
        order = permutation_rows("sgd", range(blocks), 10)
        if stack is None:
            order = order[0]
        calls = []

        def counted(*args):
            calls.append((args[1].shape, len(args[2]), type(args[2])))
            return gradient(*args)

        monkeypatch.setattr(model, "gradient", counted)
        _, norms = sgd_epoch_traced(spec, params, toy_dataset(n=10 * blocks), 0.1, 4, order)
        assert len(calls) == len(norms) == 3  # ceil(10 / 4)
        assert [rows for _, rows, _ in calls] == [4 * blocks, 4 * blocks, 2 * blocks]
        assert {shape for shape, _, _ in calls} == {(blocks, params.shape[-1])}
        assert {kind for _, _, kind in calls} == {Dataset}


class TestDataset:
    def test_rejects_out_of_range_features(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[1.5, 0.0]]), np.array([0]), 2)

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[0.5, 0.5]]), np.array([2]), 2)

    def test_subset_keeps_rows_and_classes(self):
        data = toy_dataset()
        rows = data.subset(np.array([5, 0, 5]))
        np.testing.assert_array_equal(rows.features, data.features[[5, 0, 5]])
        np.testing.assert_array_equal(rows.labels, data.labels[[5, 0, 5]])
        assert rows.num_classes == data.num_classes

    @given(
        n=st.integers(1, 40),
        dim=st.integers(1, 6),
        picks=st.lists(st.integers(-(2**31), 2**31), max_size=60),
        dtype=st.sampled_from([np.int64, np.int32]),
    )
    @settings(max_examples=100, deadline=None)
    def test_subset_equals_fancy_indexing_bit_for_bit(self, n, dim, picks, dtype):
        # Negative and repeated indices included; a slice stays a view.
        rng = np.random.default_rng(n * 7 + dim)
        data = Dataset(rng.uniform(0, 1, (n, dim)), rng.integers(0, 3, n), 3)
        idx = np.array([p % (2 * n) - n for p in picks], dtype=dtype)
        rows = data.subset(idx)
        for got, expected in ((rows.features, data.features[idx]), (rows.labels, data.labels[idx])):
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.flags.c_contiguous and got.tobytes() == expected.tobytes()
        view = data.subset(slice(1, None, 2))
        assert np.shares_memory(view.features, data.features) or len(view) == 0


def _kernel_case(kind, d, k, h, l2, seed):
    """A spec of one kind; the quadratic's curvature is drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    if kind == "softmax":
        return softmax_spec(d, k, l2)
    if kind == "mlp":
        return mlp_spec(d, k, h, l2)
    return quadratic_spec(rng.uniform(0.1, 5.0, d), l2)


class TestStackedKernel:
    @given(
        kind=st.sampled_from(["softmax", "mlp", "quadratic"]),
        stack=st.integers(min_value=1, max_value=40),
        n=st.integers(min_value=1, max_value=200),
        d=st.integers(min_value=1, max_value=6),
        k=st.integers(min_value=2, max_value=5),
        h=st.integers(min_value=1, max_value=8),
        l2=st.sampled_from([0.0, 0.03]),
        scale=st.sampled_from([0.3, 3.0, 40.0]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_rows_equal_per_vector_calls_bit_for_bit(self, kind, stack, n, d, k, h, l2, scale, seed):
        # A large scale pushes samples onto the capped branch of the loss.
        spec = _kernel_case(kind, d, k, h, l2, seed)
        rng = np.random.default_rng(seed + 1)
        data = Dataset(rng.uniform(0, 1, (n, d)), rng.integers(0, k, n), k)
        W = rng.normal(0.0, scale, (stack, param_dim(spec)))
        losses, grads = _loss_and_grad_stacked(spec, W, data.features, data.labels, True)
        loss_only, none = _loss_and_grad_stacked(spec, W, data.features, data.labels, False)
        none2, grad_only = _loss_and_grad_stacked(
            spec, W, data.features, data.labels, True, want_loss=False
        )
        assert none is None and none2 is None
        unpenalized, _ = _loss_and_grad_stacked(
            _kernel_case(kind, d, k, h, 0.0, seed), W, data.features, data.labels, False
        )
        for p in range(stack):
            # The penalty is the per-vector dot product, as in a 1-D evaluation.
            assert losses[p] == unpenalized[p] + 0.5 * l2 * float(W[p] @ W[p])
            expected_loss = loss(spec, W[p], data)
            expected_grad = gradient(spec, W[p], data)
            assert losses[p] == expected_loss == loss_only[p]
            for got in (grads[p], grad_only[p]):
                np.testing.assert_array_equal(got, expected_grad)
                np.testing.assert_array_equal(np.signbit(got), np.signbit(expected_grad))


# The stacked kernel as it stood before its log-softmax went class-major,
# copied verbatim (bar the ``model.`` prefix on the cap) as a frozen
# reference: the new layout must reproduce it bit for bit.
def _frozen_loss_and_grad_stacked(
    spec: ModelSpec,
    W: np.ndarray,
    feats: np.ndarray,
    labels: np.ndarray,
    want_grad: bool,
    want_loss: bool = True,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Losses ``(P,)`` and gradients ``(P, dim)`` at each row of a parameter stack.

    The one home of the forward and backward math; either output is None
    when not wanted. Data is either shared by every row (``feats`` (n, d),
    ``labels`` (n,)) or one block per row (``feats`` (P, n, d), ``labels``
    (P, n)). It checks nothing: ``W`` must be finite with ``param_dim(spec)``
    columns and the data nonempty and matching the spec. Row p equals
    :func:`loss` and :func:`gradient` at ``W[p]`` on its data bit for bit.
    That is why the penalty is a row-wise ``vecdot`` (the same sum as
    ``w @ w``; ``einsum`` rounds differently) and the log-probabilities are
    gathered into a fresh contiguous array (a strided mean sums in another
    order).
    """
    l2 = spec.l2_coefficient
    losses = grads = None
    if want_loss:
        penalty = 0.5 * l2 * np.vecdot(W, W)
    if spec.kind == "quadratic":
        curv = np.asarray(spec.quad_diag) * W
        if want_loss:
            losses = 0.5 * np.vecdot(W, curv) + penalty
        if want_grad:
            grads = curv + l2 * W
        return losses, grads

    stack, n = W.shape[0], feats.shape[-2]
    d, k, h = spec.feature_dim, spec.num_classes, spec.hidden_width
    if spec.kind == "softmax":
        weights = W[:, : k * d].reshape(stack, k, d)
        logits = feats @ weights.transpose(0, 2, 1) + W[:, None, k * d :]
    else:
        o1, o2, o3 = h * d, h * d + h, h * d + h + k * h
        w1 = W[:, :o1].reshape(stack, h, d)
        b1 = W[:, None, o1:o2]
        w2 = W[:, o2:o3].reshape(stack, k, h)
        b2 = W[:, None, o3:]
        hidden = np.tanh(feats @ w1.transpose(0, 2, 1) + b1)
        logits = hidden @ w2.transpose(0, 2, 1) + b2
    shifted = logits - np.maximum.reduce(logits, axis=2, keepdims=True)
    logp_all = shifted - np.log(np.add.reduce(np.exp(shifted), axis=2, keepdims=True))
    # One gather serves shared and per-row labels; it returns a fresh (P, n) array.
    which, rows = np.arange(stack)[:, None], np.arange(n)
    logp = logp_all[which, rows, labels]
    if want_loss:
        losses = np.add.reduce(np.minimum(-logp, model._LOG_CAP), axis=1) / n + penalty
    if not want_grad:
        return losses, None

    err = np.exp(logp_all)
    err[which, rows, labels] -= 1.0
    # Samples whose true-class probability is below the floor sit on the
    # capped (flat) branch of the loss and contribute no gradient.
    kept = logp >= -model._LOG_CAP
    if not kept.all():
        err[~kept] = 0.0
    err /= n
    if spec.kind == "softmax":
        parts = [err.transpose(0, 2, 1) @ feats, np.add.reduce(err, axis=1)]
    else:
        d_hidden = (err @ w2) * (1.0 - hidden * hidden)
        parts = [
            d_hidden.transpose(0, 2, 1) @ feats,
            np.add.reduce(d_hidden, axis=1),
            err.transpose(0, 2, 1) @ hidden,
            np.add.reduce(err, axis=1),
        ]
    grads = np.concatenate([part.reshape(stack, -1) for part in parts], axis=1)
    grads += l2 * W
    return losses, grads


def _kernel_call(kind, per_row, stack, n, d, k, h, l2, scale, seed):
    """A spec, a ``(stack, dim)`` parameter stack and shared or per-row data."""
    spec = _kernel_case(kind, d, k, h, l2, seed)
    rng = np.random.default_rng(seed + 1)
    shape = (stack, n) if per_row else (n,)
    feats, labels = rng.uniform(0, 1, (*shape, d)), rng.integers(0, k, shape)
    return spec, rng.normal(0.0, scale, (stack, param_dim(spec))), feats, labels


def _assert_matches_frozen(spec, W, feats, labels, want_grad, want_loss):
    """The kernel's outputs are the frozen kernel's bit for bit, zero signs included."""
    got = _loss_and_grad_stacked(spec, W, feats, labels, want_grad, want_loss)
    expected = _frozen_loss_and_grad_stacked(spec, W, feats, labels, want_grad, want_loss)
    for new, old in zip(got, expected):
        if old is None:
            assert new is None
        else:
            np.testing.assert_array_equal(new, old)
            np.testing.assert_array_equal(np.signbit(new), np.signbit(old))


def _kernel_example(per_row, stack, n, d, k, scale, want):
    """A softmax example for the frozen-kernel property."""
    return example(
        kind="softmax", per_row=per_row, stack=stack, n=n, d=d, k=k, h=1, l2=0.03,
        scale=scale, want=want, seed=0,
    )


class TestFrozenKernel:
    @given(
        kind=st.sampled_from(["softmax", "mlp"]),
        per_row=st.booleans(),
        stack=st.integers(min_value=1, max_value=12),
        n=st.integers(min_value=1, max_value=60),
        d=st.integers(min_value=1, max_value=16),
        k=st.integers(min_value=2, max_value=40),
        h=st.integers(min_value=1, max_value=8),
        l2=st.sampled_from([0.0, 0.03]),
        scale=st.sampled_from([0.3, 3.0, 40.0]),
        want=st.sampled_from([(True, True), (True, False), (False, True)]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=150, deadline=None)
    # The shapes the benchmark runs: a hetero-eight probe stack, lockstep SGD
    # batches of 8 and 32 rows, and a round's test-set scoring.
    @_kernel_example(False, 80, 150, 8, 4, 0.3, (True, True))
    @_kernel_example(True, 10, 8, 8, 4, 0.3, (True, False))
    @_kernel_example(True, 8, 32, 8, 4, 3.0, (True, False))
    @_kernel_example(False, 11, 240, 8, 4, 0.3, (False, True))
    # A shape where ``err`` (P, k, n) @ feats rounds some gradients
    # differently from the transposed product of the (P, n, k) copy.
    @_kernel_example(False, 4, 60, 12, 3, 3.0, (True, True))
    # One feature and two classes: BLAS takes ``err.T @ feats`` as a
    # matrix-vector product, which rounds differently unless ``err`` is a
    # contiguous (P, n, k) array.
    @_kernel_example(False, 4, 30, 1, 2, 0.3, (True, False))
    # One shared row, where one 2-D ``feats @ W.reshape(P * k, d).T`` for the
    # logits rounds differently from the batched product.
    @_kernel_example(False, 3, 1, 16, 11, 0.3, (False, True))
    def test_matches_frozen_kernel_bit_for_bit(
        self, kind, per_row, stack, n, d, k, h, l2, scale, want, seed
    ):
        # k >= 8 takes the eight-accumulator class sum; a large scale pushes
        # samples onto the capped branch of the loss.
        call = _kernel_call(kind, per_row, stack, n, d, k, h, l2, scale, seed)
        _assert_matches_frozen(*call, *want)

    @pytest.mark.parametrize("k", [7, 8, 9, 16, 23, 128, 129, 200])
    def test_class_sum_boundaries(self, k):
        # Around the pairwise sum's block edges (8 terms, 128 terms), where
        # its order changes.
        spec = softmax_spec(3, k, 0.01)
        rng = np.random.default_rng(k)
        feats, labels = rng.uniform(0, 1, (40, 3)), rng.integers(0, k, 40)
        W = rng.normal(0.0, 3.0, (5, param_dim(spec)))
        got = _loss_and_grad_stacked(spec, W, feats, labels, True)
        expected = _frozen_loss_and_grad_stacked(spec, W, feats, labels, True)
        for new, old in zip(got, expected):
            np.testing.assert_array_equal(new, old)


_SCRATCH_CALL = st.tuples(
    st.sampled_from(["softmax", "mlp"]),
    st.booleans(),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=1, max_value=8),
    st.sampled_from([0.0, 0.03]),
    st.sampled_from([0.3, 40.0]),
    st.integers(min_value=0, max_value=2**16),
)


_WANTS = st.sampled_from([(True, True), (True, False), (False, True)])


def _workspace_of(call):
    """The calling thread's kernel workspace for a :func:`_kernel_call`'s shape."""
    _, _, stack, n, _, k, *_ = call
    return model._workspace(threading.get_ident(), stack, n, k)


class TestScratchBuffers:
    @given(
        calls=st.lists(_SCRATCH_CALL, min_size=4, max_size=7),
        wants=st.lists(_WANTS, min_size=7, max_size=7),
    )
    @settings(max_examples=60, deadline=None)
    def test_calls_that_grow_shrink_and_grow_match_frozen_kernel(self, calls, wants):
        # Ordered by the size of the (P, n, k) intermediates: the middle calls
        # grow, the smallest shrinks, the largest grows past all of them. The
        # cache starts empty, so every new shape takes a new workspace.
        by_size = sorted(calls, key=lambda call: call[2] * call[3] * call[5])
        model._workspace.cache_clear()
        for call, want in zip([*by_size[1:-1], by_size[0], by_size[-1]], wants):
            _assert_matches_frozen(*_kernel_call(*call), *want)

    @given(
        calls=st.lists(
            st.tuples(_SCRATCH_CALL, _WANTS),
            min_size=33,
            max_size=40,
            unique_by=lambda call: (call[0][2], call[0][3], call[0][5]),
        ),
    )
    @settings(max_examples=20, deadline=None)
    def test_more_shapes_than_the_cache_holds_match_frozen_kernel(self, calls):
        # Over 32 distinct shapes evict the least recently used workspaces;
        # the first four shapes come back after their eviction.
        for call, want in [*calls, *calls[:4]]:
            _assert_matches_frozen(*_kernel_call(*call), *want)
            assert model._workspace.cache_info().currsize <= 32

    @pytest.mark.parametrize("kind", ["softmax", "mlp"])
    @pytest.mark.parametrize("per_row", [False, True])
    def test_outputs_outlive_later_calls_and_share_no_scratch(self, kind, per_row):
        # Bigger, smaller, then bigger again than the first; scale 40 puts
        # samples on the capped branch, where ``err`` is zeroed in place.
        shapes = [(6, 40, 5), (9, 50, 7), (2, 10, 3), (12, 60, 9)]
        kept = []
        for i, (stack, n, k) in enumerate(shapes):
            call = (kind, per_row, stack, n, 4, k, 6, 0.03, 40.0, i)
            spec, W, feats, labels = _kernel_call(*call)
            outputs = [
                *_loss_and_grad_stacked(spec, W, feats, labels, True),
                _loss_and_grad_stacked(spec, W, feats, labels, False)[0],
                _loss_and_grad_stacked(spec, W, feats, labels, True, want_loss=False)[1],
            ]
            for out in outputs:
                for buf in _workspace_of(call):
                    assert not np.shares_memory(out, buf)
            kept.extend((out, out.copy()) for out in outputs)
        for out, copy in kept:
            np.testing.assert_array_equal(out, copy)

    @pytest.mark.parametrize("size", [0, 10_000])
    def test_cached_views_follow_a_reset_of_the_buffers(self, size):
        # A reset of the cache drops the workspace; a call in between with a
        # ``size``-entry intermediate (none at 0) takes one of its own, so the
        # shape's next call gets a fresh workspace of its own shape.
        call = ("softmax", False, 3, 20, 4, 3, 1, 0.0, 40.0, 0)
        first = _loss_and_grad_stacked(*_kernel_call(*call), True)
        old = _workspace_of(call)
        model._workspace.cache_clear()
        if size:
            between = ("softmax", False, 10, size // 100, 4, 10, 1, 0.0, 40.0, 1)
            _loss_and_grad_stacked(*_kernel_call(*between), True)
        again = _loss_and_grad_stacked(*_kernel_call(*call), True)
        rows_major, class_major, offsets = _workspace_of(call)
        assert rows_major is not old[0] and class_major is not old[1]
        assert rows_major.shape == (3, 20, 3) and class_major.shape == (3, 3, 20)
        assert rows_major.flags.c_contiguous and class_major.flags.c_contiguous
        np.testing.assert_array_equal(offsets, np.arange(3)[:, None] * 60 + np.arange(20))
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a, b)

    def test_each_thread_and_shape_has_its_own_workspace(self):
        call = ("softmax", False, 3, 20, 4, 3, 1, 0.0, 40.0, 0)
        first = _loss_and_grad_stacked(*_kernel_call(*call), True)
        mine = _workspace_of(call)
        assert _workspace_of(call) is mine
        with ThreadPoolExecutor(max_workers=1) as pool:
            again = pool.submit(_loss_and_grad_stacked, *_kernel_call(*call), True).result()
            theirs = pool.submit(_workspace_of, call).result()
        other_shape = _workspace_of(("softmax", False, 3, 21, 4, 3, 1, 0.0, 40.0, 0))
        for other in (theirs, other_shape):
            for a, b in zip(mine[:2], other[:2]):
                assert not np.shares_memory(a, b)
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a, b)


def _blocks_case(kind, stack, n, d, k, h, l2, scale, seed):
    """A spec, a ``(stack, dim)`` parameter stack and ``stack`` row blocks of ``n`` rows."""
    spec = _kernel_case(kind, d, k, h, l2, seed)
    rng = np.random.default_rng(seed + 1)
    rows = stack * n
    data = Dataset(rng.uniform(0, 1, (rows, d)), rng.integers(0, k, rows), k)
    W = rng.normal(0.0, scale, (stack, param_dim(spec)))
    blocks = [data.subset(np.arange(p * n, (p + 1) * n)) for p in range(stack)]
    return spec, W, data, blocks


def _per_node_epoch(spec, w, data, lr, batch_size, seed):
    """One node's epoch, one checked single-vector gradient call per step."""
    order = spawn_rng("sgd", seed).permutation(len(data))
    norms = []
    for start in range(0, len(data), batch_size):
        grad = gradient(spec, w, data.subset(order[start : start + batch_size]))
        norms.append(float(np.linalg.norm(grad)))
        w = w - lr * grad
    return w, norms


_STACK_CASES = dict(
    kind=st.sampled_from(["softmax", "mlp", "quadratic"]),
    stack=st.integers(min_value=1, max_value=12),
    n=st.integers(min_value=1, max_value=60),
    d=st.integers(min_value=1, max_value=6),
    k=st.integers(min_value=2, max_value=5),
    h=st.integers(min_value=1, max_value=8),
    l2=st.sampled_from([0.0, 0.03]),
    scale=st.sampled_from([0.3, 3.0, 40.0]),
    seed=st.integers(min_value=0, max_value=2**16),
)


class TestRowBlocks:
    @given(**_STACK_CASES)
    @settings(max_examples=80, deadline=None)
    def test_block_rows_equal_per_block_calls_bit_for_bit(self, kind, stack, n, d, k, h, l2, scale, seed):
        # A large scale pushes samples onto the capped branch of the loss.
        spec, W, data, blocks = _blocks_case(kind, stack, n, d, k, h, l2, scale, seed)
        losses = loss(spec, W, data)
        grads = gradient(spec, W, data)
        assert losses.shape == (stack,) and grads.shape == W.shape
        for p, block in enumerate(blocks):
            assert losses[p] == loss(spec, W[p], block)
            expected = gradient(spec, W[p], block)
            np.testing.assert_array_equal(grads[p], expected)
            np.testing.assert_array_equal(np.signbit(grads[p]), np.signbit(expected))

    def test_rows_must_split_into_equal_blocks(self):
        spec = softmax_spec(4, 3)
        W = np.stack([init_params(spec, s) for s in range(5)])
        with pytest.raises(ValueError, match="5 equal blocks"):
            gradient(spec, W, toy_dataset(n=12))
        with pytest.raises(ValueError, match="5 equal blocks"):
            loss(spec, W, toy_dataset(n=12))

    def test_stack_is_checked_like_a_vector(self):
        spec = softmax_spec(4, 3)
        W = np.stack([init_params(spec, s) for s in range(3)])
        W[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            gradient(spec, W, toy_dataset(n=12))
        with pytest.raises(ValueError, match="shape"):
            loss(spec, W[:, :-1], toy_dataset(n=12))
        with pytest.raises(ValueError, match="shape"):
            loss(spec, W[None], toy_dataset(n=12))
        with pytest.raises(ValueError, match="shape"):
            loss(spec, W[:0], toy_dataset(n=12))


class TestLockstepSgd:
    @given(
        **_STACK_CASES,
        batch_size=st.integers(min_value=1, max_value=60),
        lr=st.sampled_from([0.0, 0.1, 0.7]),
    )
    @settings(max_examples=80, deadline=None)
    def test_rows_equal_per_node_epochs_bit_for_bit(
        self, kind, stack, n, d, k, h, l2, scale, seed, batch_size, lr
    ):
        batch_size = min(batch_size, n)  # most draws leave a short last batch
        spec, W, data, blocks = _blocks_case(kind, stack, n, d, k, h, l2, scale, seed)
        seeds = [seed * 31 + p for p in range(stack)]
        order = permutation_rows("sgd", seeds, n)
        before = W.copy()
        trained, norms = sgd_epoch_traced(spec, W, data, lr, batch_size, order)
        np.testing.assert_array_equal(W, before)
        assert norms.shape == (-(-n // batch_size), stack)
        for p, block in enumerate(blocks):
            single, single_norms = sgd_epoch_traced(spec, W[p], block, lr, batch_size, order[p])
            ref, ref_norms = _per_node_epoch(spec, W[p], block, lr, batch_size, seeds[p])
            np.testing.assert_array_equal(trained[p], single)
            np.testing.assert_array_equal(single, ref)
            np.testing.assert_array_equal(norms[:, p], single_norms)
            np.testing.assert_array_equal(single_norms, ref_norms)

    @pytest.mark.parametrize("l2", [0.0, 0.05])
    def test_capped_samples_train_in_lockstep(self, l2):
        # A bias of 60 on class 0 puts every sample of another class below
        # PROB_FLOOR: its loss is capped and its gradient is zero.
        spec = softmax_spec(4, 3, l2)
        rng = np.random.default_rng(5)
        data = Dataset(rng.uniform(0, 1, (30, 4)), np.tile([0, 1, 2], 10), 3)
        W = rng.normal(0.0, 0.3, (3, param_dim(spec)))
        W[:, 12] += 60.0
        capped = data.subset(np.flatnonzero(data.labels != 0)[:10])
        np.testing.assert_array_equal(gradient(spec, W[0], capped), l2 * W[0])
        trained, norms = sgd_epoch_traced(spec, W, data, 0.2, 4, permutation_rows("sgd", [1, 2, 3], 10))
        for p in range(3):
            block = data.subset(np.arange(10 * p, 10 * (p + 1)))
            ref, ref_norms = _per_node_epoch(spec, W[p], block, 0.2, 4, p + 1)
            np.testing.assert_array_equal(trained[p], ref)
            np.testing.assert_array_equal(norms[:, p], ref_norms)

    def test_one_order_row_per_stack_row(self):
        spec = softmax_spec(4, 3)
        W = np.stack([init_params(spec, s) for s in range(2)])
        data = toy_dataset(n=12)
        for order in (np.tile(np.arange(4), (3, 1)), np.arange(6), np.arange(12).reshape(2, 6)[:, :5]):
            with pytest.raises(ValueError, match="row order"):
                sgd_epoch_traced(spec, W, data, 0.1, 3, order)
        with pytest.raises(ValueError, match="row order"):
            sgd_epoch_traced(spec, W[0], toy_dataset(n=6), 0.1, 3, np.arange(6)[None])

    def test_order_must_hold_integer_positions_within_the_block(self):
        spec = softmax_spec(4, 3)
        W = np.stack([init_params(spec, s) for s in range(2)])
        data = toy_dataset(n=12)
        bad = (
            np.tile(np.arange(6.0), (2, 1)),
            np.array([[0, 1, 2, 3, 4, 6], [0, 1, 2, 3, 4, 5]]),
            np.array([[0, 1, 2, 3, 4, 5], [-1, 1, 2, 3, 4, 5]]),
        )
        for order in bad:
            with pytest.raises(ValueError, match="row order"):
                sgd_epoch_traced(spec, W, data, 0.1, 3, order)

    @given(
        stack=st.integers(1, 4),
        n=st.integers(1, 10),
        batch_size=st.integers(1, 10),
        poison=st.sampled_from([np.nan, np.inf, -np.inf]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_a_diverging_row_is_named_with_the_step_that_left_it(
        self, stack, n, batch_size, poison, data
    ):
        # Row ``row``'s gradient of step k is poisoned; the rows train apart,
        # so the others stay a clean epoch's bit for bit.
        batch_size = min(batch_size, n)
        steps = -(-n // batch_size)
        row = data.draw(st.integers(0, stack - 1), label="row")
        k = data.draw(st.integers(1, steps), label="k")
        spec = softmax_spec(4, 3, l2=0.01)
        W = np.stack([init_params(spec, s) for s in range(stack)])
        rows = toy_dataset(seed=stack, n=n * stack)
        order = permutation_rows("sgd", range(stack), n)

        def tracing(inputs, poisoned):
            def traced(spec, params, batch):
                inputs.append(params.copy())
                grad = gradient(spec, params, batch)
                if poisoned and len(inputs) == k:
                    grad = grad.copy()
                    grad[row] = poison
                return grad

            return traced

        clean, spoiled = [], []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model, "gradient", tracing(clean, False))
            sgd_epoch_traced(spec, W, rows, 0.1, batch_size, order)
            patch.setattr(model, "gradient", tracing(spoiled, True))
            with pytest.raises(model.DivergenceError) as failed:
                sgd_epoch_traced(spec, W, rows, 0.1, batch_size, order)
        assert (failed.value.step, failed.value.row) == (k, row)
        assert str(failed.value).endswith(f"after {k} steps, first in stack row {row}")
        # Step k + 1's gradient call, if any, fails its check of what step k left.
        assert len(spoiled) == min(k + 1, steps)
        others = np.arange(stack) != row
        for got, expected in zip(spoiled, clean):
            np.testing.assert_array_equal(got[others], expected[others])

    def test_batch_size_bounded_by_block_rows(self):
        spec = softmax_spec(4, 3)
        W = np.stack([init_params(spec, s) for s in range(2)])
        with pytest.raises(ValueError, match=r"\[1, 6\]"):
            sgd_epoch_traced(spec, W, toy_dataset(n=12), 0.1, 7, permutation_rows("sgd", [1, 2], 6))



class TestSharedDataLoss:
    @given(**_STACK_CASES)
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_single_vector_calls_bit_for_bit(
        self, kind, stack, n, d, k, h, l2, scale, seed
    ):
        spec = _kernel_case(kind, d, k, h, l2, seed)
        rng = np.random.default_rng(seed + 1)
        data = Dataset(rng.uniform(0, 1, (n, d)), rng.integers(0, k, n), k)
        W = rng.normal(0.0, scale, (stack, param_dim(spec)))
        losses = shared_data_loss(spec, W, data)
        assert losses.shape == (stack,)
        for p in range(stack):
            assert losses[p] == loss(spec, W[p], data)

    def test_stack_is_checked(self):
        spec = softmax_spec(4, 3)
        W = np.stack([init_params(spec, s) for s in range(3)])
        data = toy_dataset(n=5)
        with pytest.raises(ValueError, match="stack"):
            shared_data_loss(spec, W[0], data)
        with pytest.raises(ValueError, match="shape"):
            shared_data_loss(spec, W[:, :-1], data)
        W[2, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            shared_data_loss(spec, W, data)

class TestDatasetConcat:
    def test_blocks_in_order(self):
        a, b = toy_dataset(seed=1, n=3), toy_dataset(seed=2, n=4)
        both = Dataset.concat([a, b])
        np.testing.assert_array_equal(both.features, np.vstack([a.features, b.features]))
        np.testing.assert_array_equal(both.labels, np.concatenate([a.labels, b.labels]))
        assert both.num_classes == 3

    def test_mismatched_parts_rejected(self):
        with pytest.raises(ValueError):
            Dataset.concat([toy_dataset(classes=3), toy_dataset(classes=4)])
        with pytest.raises(ValueError):
            Dataset.concat([])
