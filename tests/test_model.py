"""Embedding, attention, gradients, FLOP accounting, and the training loop."""

import ast
import math
import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vardrop
import vardrop.model as model

from vardrop import (
    ModelParams,
    NumericError,
    ParameterError,
    RunConfig,
    SeriesTable,
    SplitSpec,
    WindowBatch,
    attention,
    backward,
    batch_windows,
    chronological_split,
    count_flops,
    embed,
    forward,
    hash_groups,
    initialize_params,
    load_table,
    plan_batch,
    predict_full,
    run,
    sgd_step,
    sliding_windows,
    split_batches,
    synth_redundant_detail,
    train_epoch,
    validation_loss,
)

from helpers import (
    matmul_loops,
    max_rel_error,
    numeric_gradients,
    reference_train_epoch,
    score_gradients_out_of_place,
    scores_are_small,
    softmax_attention_out_of_place,
    textbook_attention,
    window_loss_and_gradients,
)


def make_window(rng, n=6, lookback=16, horizon=4):
    """A batch of one random window."""
    return WindowBatch(
        rng.normal(size=(1, n, lookback)), rng.normal(size=(1, n, horizon))
    )


def tiny_params(w_query, w_key, w_value, embed_dim, attn_dim, horizon=2, lookback=4):
    """Params with handpicked attention weights and inert everything else."""
    return ModelParams(
        w_embed=np.zeros((lookback, embed_dim)),
        b_embed=np.zeros(embed_dim),
        w_query=np.asarray(w_query, dtype=float),
        w_key=np.asarray(w_key, dtype=float),
        w_value=np.asarray(w_value, dtype=float),
        w_out=np.zeros((attn_dim, embed_dim)),
        w_head=np.zeros((embed_dim, horizon)),
        b_head=np.zeros(horizon),
    )


class TestInitializeParams:
    def test_shapes(self):
        p = initialize_params(lookback=96, horizon=24, embed_dim=64, attn_dim=32, seed=0)
        assert p.w_embed.shape == (96, 64)
        assert p.b_embed.shape == (64,)
        assert p.w_query.shape == p.w_key.shape == p.w_value.shape == (64, 32)
        assert p.w_out.shape == (32, 64)
        assert p.w_head.shape == (64, 24)
        assert p.b_head.shape == (24,)
        assert (p.lookback, p.horizon, p.embed_dim, p.attn_dim) == (96, 24, 64, 32)

    def test_bounds_and_zero_biases(self):
        p = initialize_params(16, 4, 8, 4, seed=1)
        assert np.max(np.abs(p.w_embed)) <= 1.0 / math.sqrt(16)
        assert np.max(np.abs(p.w_query)) <= 1.0 / math.sqrt(8)
        assert np.max(np.abs(p.w_out)) <= 1.0 / math.sqrt(4)
        npt.assert_array_equal(p.b_embed, 0.0)
        npt.assert_array_equal(p.b_head, 0.0)

    def test_seeded(self):
        a = initialize_params(16, 4, 8, 4, seed=7)
        b = initialize_params(16, 4, 8, 4, seed=7)
        npt.assert_array_equal(a.w_head, b.w_head)
        c = initialize_params(16, 4, 8, 4, seed=8)
        assert not np.array_equal(a.w_head, c.w_head)

    def test_validation(self):
        with pytest.raises(ParameterError):
            initialize_params(0, 4, 8, 4, seed=0)
        with pytest.raises(ParameterError):
            initialize_params(16, 4, 8, 0, seed=0)


class TestEmbed:
    def test_zero_window_yields_bias_rows(self):
        p = initialize_params(8, 2, 4, 2, seed=0)
        p = sgd_step(p, _zero_grads_like(p), 1.0)  # no-op, keeps types honest
        window = np.zeros((3, 8))
        bias = embed(window[None, [0, 1, 2]], p)
        npt.assert_array_equal(bias, np.tile(p.b_embed, (1, 3, 1)))

    def test_matches_loop_matmul(self):
        rng = np.random.default_rng(2)
        p = initialize_params(8, 2, 4, 2, seed=2)
        window = rng.normal(size=(5, 8))
        got = embed(window[None, [0, 2, 4]], p)[0]
        want = matmul_loops(window[[0, 2, 4]], p.w_embed) + p.b_embed
        npt.assert_allclose(got, want, rtol=1e-12)

    def test_subset_matches_dense_rows(self):
        rng = np.random.default_rng(3)
        p = initialize_params(8, 2, 4, 2, seed=3)
        window = rng.normal(size=(6, 8))
        dense = embed(window[None], p)
        sub = embed(window[None, [1, 4]], p)
        npt.assert_array_equal(sub, dense[:, [1, 4]])

    def test_lookback_mismatch(self):
        p = initialize_params(8, 2, 4, 2, seed=0)
        window = np.zeros((3, 9))
        with pytest.raises(ParameterError):
            embed(window[None, [0]], p)
        with pytest.raises(ParameterError):
            embed(np.zeros(8), p)  # one row, not a c x N' x T stack
        with pytest.raises(ParameterError):
            embed(np.zeros((3, 8)), p)  # one window's rows, not a stack of one


def _zero_grads_like(params):
    return ModelParams(
        **{
            name: np.zeros_like(getattr(params, name))
            for name in ModelParams.__dataclass_fields__
        }
    )


class TestAttention:
    def test_single_token(self):
        p = initialize_params(8, 2, 4, 2, seed=4)
        rng = np.random.default_rng(4)
        tokens = rng.normal(size=(1, 1, 4))
        frag = attention(tokens, p)
        npt.assert_array_equal(frag.exp_scores / frag.row_sums, [[[1.0]]])
        npt.assert_allclose(frag.context, frag.values, rtol=1e-15)

    def test_identical_tokens_uniform_weights(self):
        p = initialize_params(8, 2, 4, 2, seed=5)
        token = np.random.default_rng(5).normal(size=4)
        tokens = np.tile(token, (1, 5, 1))
        frag = attention(tokens, p)
        weights = frag.exp_scores / frag.row_sums
        npt.assert_allclose(weights, np.full((1, 5, 5), 0.2), rtol=1e-12)
        npt.assert_allclose(frag.context, frag.values, rtol=1e-12)

    def test_hand_computed_scores(self):
        # tokens = I2, wq/wk chosen so scores = [[0, ln3], [0, 0]]
        p = tiny_params(
            w_query=[[1.0], [0.0]],
            w_key=[[0.0], [math.log(3.0)]],
            w_value=[[10.0], [20.0]],
            embed_dim=2,
            attn_dim=1,
        )
        frag = attention(np.eye(2)[None], p)
        weights = frag.exp_scores / frag.row_sums
        npt.assert_allclose(weights[0, 0], [0.25, 0.75], rtol=1e-12)
        npt.assert_allclose(weights[0, 1], [0.5, 0.5], rtol=1e-12)
        npt.assert_allclose(frag.context, [[[17.5], [15.0]]], rtol=1e-12)

    def test_rows_sum_to_one(self):
        p = initialize_params(8, 2, 16, 8, seed=6)
        tokens = np.random.default_rng(6).normal(size=(3, 12, 16)) * 10.0
        frag = attention(tokens, p)
        weights = frag.exp_scores / frag.row_sums
        npt.assert_allclose(weights.sum(axis=2), np.ones((3, 12)), atol=1e-9)
        assert np.all(weights >= 0.0)

    def test_score_scale(self):
        # scores carry the 1/sqrt(d_k) factor
        p = tiny_params(
            w_query=[[1.0, 0.0], [0.0, 1.0]],
            w_key=[[1.0, 0.0], [0.0, 1.0]],
            w_value=[[1.0, 0.0], [0.0, 1.0]],
            embed_dim=2,
            attn_dim=2,
        )
        tokens = np.array([[3.0, 0.0], [0.0, 2.0]])
        frag = attention(tokens[None], p)
        raw = tokens @ tokens.T / math.sqrt(2.0)
        shifted = raw - raw.max(axis=1, keepdims=True)
        want = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        npt.assert_allclose((frag.exp_scores / frag.row_sums)[0], want, rtol=1e-12)

    def test_non_finite_tokens_rejected(self):
        p = initialize_params(8, 2, 4, 2, seed=7)
        tokens = np.zeros((1, 3, 4))
        tokens[0, 1, 2] = np.inf
        with pytest.raises(NumericError):
            attention(tokens, p)

    def test_shape_validation(self):
        p = initialize_params(8, 2, 4, 2, seed=7)
        with pytest.raises(ParameterError):
            attention(np.zeros((1, 3, 5)), p)
        with pytest.raises(ParameterError):
            attention(np.zeros(4), p)
        with pytest.raises(ParameterError):
            attention(np.zeros((3, 4)), p)  # one window's tokens, not a stack
        with pytest.raises(ParameterError, match="N' >= 1"):
            attention(np.zeros((1, 0, 4)), p)  # windows of no tokens
        with pytest.raises(ParameterError, match="N' >= 1"):
            attention(np.zeros((3, 0, 4)), p)


class TestForward:
    def test_zero_params_predict_bias(self):
        rng = np.random.default_rng(8)
        window = make_window(rng, n=4, lookback=8, horizon=3)
        p = initialize_params(8, 3, 4, 2, seed=8)
        zeroed = ModelParams(
            w_embed=np.zeros_like(p.w_embed),
            b_embed=np.zeros_like(p.b_embed),
            w_query=p.w_query,
            w_key=p.w_key,
            w_value=p.w_value,
            w_out=np.zeros_like(p.w_out),
            w_head=np.zeros_like(p.w_head),
            b_head=np.array([1.5, -2.0, 0.25]),
        )
        trace = forward(window.data, window.horizon, zeroed, (0, 1, 2, 3))
        npt.assert_array_equal(trace.predictions, np.tile([1.5, -2.0, 0.25], (1, 4, 1)))

    def test_loss_matches_recompute(self):
        rng = np.random.default_rng(9)
        window = make_window(rng)
        p = initialize_params(16, 4, 8, 4, seed=9)
        retained = (0, 2, 3)
        trace = forward(window.data, window.horizon, p, retained)
        # straight-line recompute from the public pieces
        tokens = embed(window.data[:, list(retained)], p)
        frag = attention(tokens, p)
        preds = (frag.context @ p.w_out) @ p.w_head + p.b_head
        npt.assert_allclose(trace.predictions, preds, rtol=1e-15)
        target = window.horizon[0, [0, 2, 3]]
        assert abs(trace.losses[0] - np.mean((preds[0] - target) ** 2)) < 1e-15

    def test_perfect_predictions_zero_loss(self):
        rng = np.random.default_rng(10)
        base = make_window(rng, n=3, lookback=8, horizon=2)
        p = initialize_params(8, 2, 4, 2, seed=10)
        trace = forward(base.data, base.horizon, p, (0, 1, 2))
        window = WindowBatch(base.data, trace.predictions)
        again = forward(window.data, window.horizon, p, (0, 1, 2))
        assert again.losses[0] == 0.0

    def test_horizon_width_mismatch(self):
        rng = np.random.default_rng(11)
        window = make_window(rng, n=2, lookback=8, horizon=5)
        p = initialize_params(8, 2, 4, 2, seed=0)
        with pytest.raises(ParameterError):
            forward(window.data, window.horizon, p, (0, 1))

    def test_retained_validation(self):
        p = initialize_params(8, 2, 4, 2, seed=0)
        window = WindowBatch(np.zeros((1, 3, 8)), np.zeros((1, 3, 2)))
        with pytest.raises(ParameterError):
            forward(window.data, window.horizon, p, ())
        with pytest.raises(ParameterError):
            forward(window.data, window.horizon, p, (0, 0))
        with pytest.raises(ParameterError):
            forward(window.data, window.horizon, p, (0, 3))
        # distinct is checked before range, and range names the first bad index
        with pytest.raises(ParameterError, match="must be distinct"):
            forward(window.data, window.horizon, p, (5, 0, 5))
        with pytest.raises(ParameterError, match="got -1$"):
            forward(window.data, window.horizon, p, (0, -1, 4))

    def test_keeping_all_in_order_gathers_the_same_bits(self):
        # forward always gathers; a gathered copy of every row in order
        # predicts exactly what the view of the table does
        table = synth_redundant_detail(7, 3, 120, 0.1, seed=30).table
        p = initialize_params(32, 4, 8, 4, seed=30)
        windows = sliding_windows(table, 32, 4, 20)
        for b in range(windows.size):
            data, horizon = windows.data[b : b + 1], windows.horizon[b : b + 1]
            trace = forward(data, horizon, p, range(7))
            assert not np.shares_memory(trace.rows, data)
            npt.assert_array_equal(trace.rows, data)
            npt.assert_array_equal(trace.target, horizon)
            npt.assert_array_equal(trace.predictions[0], predict_full(data[0], p))
        # a whole stack is a view of the table, with the same bits
        assert np.shares_memory(windows.data, table.values)
        trace = forward(windows.data, windows.horizon, p, range(7))
        for b in range(windows.size):
            npt.assert_array_equal(trace.predictions[b], predict_full(windows.data[b], p))

    def test_permutation_of_all_still_gathers(self):
        table = synth_redundant_detail(7, 3, 120, 0.1, seed=31).table
        p = initialize_params(32, 4, 8, 4, seed=31)
        window = batch_windows(sliding_windows(table, 32, 4, 20), 1)[0]
        order = [6, 5, 4, 3, 2, 1, 0]
        trace = forward(window.data, window.horizon, p, order)
        assert not np.shares_memory(trace.rows, window.data)
        npt.assert_array_equal(trace.rows[0], window.data[0, order])
        npt.assert_array_equal(trace.target[0], window.horizon[0, order])


class TestBackward:
    def test_zero_loss_zero_gradients(self):
        rng = np.random.default_rng(12)
        base = make_window(rng, n=3, lookback=8, horizon=2)
        p = initialize_params(8, 2, 4, 2, seed=12)
        trace = forward(base.data, base.horizon, p, (0, 1, 2))
        window = WindowBatch(base.data, trace.predictions)
        grads = backward(forward(window.data, window.horizon, p, (0, 1, 2)), p)
        for name in (
            "w_embed", "b_embed", "w_query", "w_key",
            "w_value", "w_out", "w_head", "b_head",
        ):
            npt.assert_array_equal(getattr(grads, name), 0.0)

    def test_finite_differences(self):
        # a stack of distinct windows at two N': the gradient of the summed
        # loss must match central differences of that sum, array for array
        rng = np.random.default_rng(13)
        draws = [(rng.normal(size=(6, 16)), rng.normal(size=(6, 4))) for _ in range(3)]
        data = np.stack([x for x, _ in draws])
        horizon = np.stack([h for _, h in draws])
        p = initialize_params(16, 4, 8, 4, seed=13)
        for retained in ((0, 1, 3, 4, 5), (1, 4)):
            grads = backward(forward(data, horizon, p, retained), p)
            analytic = {f.name: getattr(grads, f.name) for f in fields(grads)}
            numeric = numeric_gradients(data, horizon, p, retained)
            assert max_rel_error(analytic, numeric) < 1e-4
            # the windows differ, so the sum is not three times the first one
            first = backward(forward(data[:1], horizon[:1], p, retained), p)
            assert not np.allclose(analytic["w_embed"], 3 * first.w_embed)

    def test_gradients_linear_in_residual(self):
        rng = np.random.default_rng(14)
        window = make_window(rng, n=4, lookback=8, horizon=3)
        p = initialize_params(8, 3, 4, 2, seed=14)
        retained = (0, 1, 2, 3)
        trace = forward(window.data, window.horizon, p, retained)
        g1 = backward(trace, p)
        # move the targets so the residual exactly doubles
        stretched = WindowBatch(window.data, 2.0 * window.horizon - trace.predictions)
        g2 = backward(forward(stretched.data, stretched.horizon, p, retained), p)
        for name in ("w_embed", "w_query", "w_out", "b_head"):
            npt.assert_allclose(
                getattr(g2, name), 2.0 * getattr(g1, name), rtol=1e-12, atol=1e-15
            )


def assert_matches_textbook_sum(grads, data, target, p):
    """The stack's gradients equal the sum of its windows' textbook gradients
    to rtol 1e-9 plus atol 1e-11 of the largest entry of any window's."""
    windows = [window_loss_and_gradients(x, y, p, textbook=True)[1]
               for x, y in zip(data, target)]
    scale = max(np.max(np.abs(array)) for want in windows for array in want.values())
    for name in windows[0]:
        want = sum(want[name] for want in windows)
        npt.assert_allclose(getattr(grads, name), want, rtol=1e-9, atol=1e-11 * scale,
                            err_msg=name)


class TestInPlaceSoftmax:
    """``attention`` and ``backward`` against out-of-place formulas: their own
    order of operations to the bit, and the textbook softmax to rounding."""

    @settings(max_examples=60, deadline=None)
    @given(
        c=st.integers(min_value=1, max_value=4),
        n=st.integers(min_value=1, max_value=40),
        lookback=st.integers(min_value=2, max_value=12),
        horizon=st.integers(min_value=1, max_value=4),
        embed_dim=st.integers(min_value=1, max_value=8),
        attn_dim=st.integers(min_value=1, max_value=6),
        spread=st.sampled_from([0.01, 1.0, 30.0]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    # three windows whose row sums backward scales by 2^13, 2^3 and 2^0
    @example(c=3, n=1, lookback=6, horizon=2, embed_dim=2, attn_dim=2, spread=30.0, seed=63676)
    def test_same_bits_and_inputs_untouched(self, c, n, lookback, horizon, embed_dim,
                                            attn_dim, spread, seed):
        rng = np.random.default_rng(seed)
        data = spread * rng.normal(size=(c, n, lookback))
        target = rng.normal(size=(c, n, horizon))
        p = initialize_params(lookback, horizon, embed_dim, attn_dim, seed=seed)

        tokens = embed(data, p)
        kept = tokens.copy()
        frag = attention(tokens, p)
        npt.assert_array_equal(tokens, kept)
        exp_scores, row_sums, context = softmax_attention_out_of_place(tokens, p)
        npt.assert_array_equal(frag.exp_scores, exp_scores)
        npt.assert_array_equal(frag.row_sums, row_sums)
        npt.assert_array_equal(frag.context, context)

        # backward turns exp_scores into dS (over 2^p) and writes no other field
        trace = forward(data, target, p, range(n))
        before = {f.name: getattr(trace, f.name).copy() for f in fields(trace)}
        d_scores, d_w_query, d_w_key = score_gradients_out_of_place(trace, p)
        grads = backward(trace, p)
        for name, array in before.items():
            if name != "exp_scores":
                npt.assert_array_equal(getattr(trace, name), array, err_msg=name)
        npt.assert_array_equal(trace.exp_scores, d_scores)
        npt.assert_array_equal(grads.w_query, d_w_query)
        npt.assert_array_equal(grads.w_key, d_w_key)

    @settings(max_examples=60, deadline=None)
    @given(
        c=st.integers(min_value=1, max_value=4),
        n=st.integers(min_value=1, max_value=40),
        lookback=st.integers(min_value=2, max_value=12),
        horizon=st.integers(min_value=1, max_value=4),
        embed_dim=st.integers(min_value=1, max_value=8),
        attn_dim=st.integers(min_value=1, max_value=6),
        spread=st.sampled_from([0.01, 1.0, 30.0]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_matches_the_textbook_softmax(self, c, n, lookback, horizon, embed_dim,
                                          attn_dim, spread, seed):
        # attention divides E V, not E, by the row sums, and backward never
        # forms the weights; both agree with the textbook formulas to within
        # rtol 1e-9 plus atol 1e-11 of the largest entry compared (for the
        # gradients, the largest entry of any window's eight textbook
        # gradients, which the stack's summed gradients are compared with the
        # sum of). In 2,500 random draws the worst error used under 1/50 of
        # that atol.
        rng = np.random.default_rng(seed)
        data = spread * rng.normal(size=(c, n, lookback))
        target = rng.normal(size=(c, n, horizon))
        p = initialize_params(lookback, horizon, embed_dim, attn_dim, seed=seed)

        tokens = embed(data, p)
        frag = attention(tokens, p)
        weights = frag.exp_scores / frag.row_sums
        for got, want in zip((weights, frag.context), textbook_attention(tokens, p)):
            npt.assert_allclose(got, want, rtol=1e-9, atol=1e-11 * np.max(np.abs(want)))

        grads = backward(forward(data, target, p, range(n)), p)
        assert_matches_textbook_sum(grads, data, target, p)

    @pytest.mark.parametrize("n", [600, 862])
    def test_several_blocks_match_the_textbook_and_keep_the_bits(self, n):
        # 2**18 // n rows per block of g V^T: 436 rows at n = 600 (two
        # blocks) and 304 at n = 862 (three), each ending in a short block.
        # The second window's scores are large, so the chunk holds both
        # branches; each window's dS keeps the bits it has alone.
        rows = model._BACKWARD_BLOCK // n
        assert rows < n and n % rows
        rng = np.random.default_rng(n)
        data = np.array([1.0, 30.0])[:, None, None] * rng.normal(size=(2, n, 6))
        target = rng.normal(size=(2, n, 3))
        p = initialize_params(6, 3, 8, 4, seed=n)
        trace = forward(data, target, p, range(n))
        small = scores_are_small(trace.queries / math.sqrt(4), trace.keys)
        npt.assert_array_equal(small, [True, False])
        grads = backward(trace, p)
        for i in range(2):
            alone = forward(data[i : i + 1], target[i : i + 1], p, range(n))
            backward(alone, p)
            npt.assert_array_equal(trace.exp_scores[i], alone.exp_scores[0])
        assert_matches_textbook_sum(grads, data, target, p)

    def test_backward_holds_one_square_array(self):
        # dS is built in E's place a block of rows at a time, and the other
        # temporaries are N' x d-sized: 2.7 MB at this size, against 8 MB for
        # one N' x N' array
        n = 1000
        rng = np.random.default_rng(41)
        p = initialize_params(96, 96, 64, 32, seed=41)
        data, target = rng.normal(size=(1, n, 96)), rng.normal(size=(1, n, 96))
        backward(forward(data, target, p, range(n)), p)  # first-call caches
        trace = forward(data, target, p, range(n))
        tracemalloc.start()
        try:
            backward(trace, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.0 * n * n * 8

    def test_a_dense_step_holds_one_square_array(self):
        # one window per chunk at this width; each chunk's trace, E included
        # (8 MB), is freed before the next forward, so a step peaks at 15.3 MB
        n = 1000
        rng = np.random.default_rng(42)
        p = initialize_params(96, 96, 64, 32, seed=42)
        batch = WindowBatch(rng.normal(size=(3, n, 96)), rng.normal(size=(3, n, 96)))
        cfg = RunConfig(vardrop_on=False)
        assert model._chunk_size(n, p) == 1
        train_epoch([batch], p, cfg)  # first-call caches
        tracemalloc.start()
        try:
            train_epoch([batch], p, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.0 * n * n * 8

    @pytest.mark.parametrize(
        "w_query, w_key",
        [
            (1e307, 1.0),  # finite queries and keys, scores overflow
            (1e160, 1e160),
            (1e308, 1.0),  # the queries themselves overflow
            (1e307, -1.0),
            (np.nan, 1.0),  # non-finite weights: the bound is NaN or inf
            (1.0, np.nan),
            (np.inf, 1.0),
            (1.0, -np.inf),
        ],
    )
    def test_scores_overflowing_from_finite_tokens_raise(self, w_query, w_key):
        p = replace(
            initialize_params(8, 2, 4, 4, seed=9),
            w_query=np.full((4, 4), w_query),
            w_key=np.full((4, 4), w_key),
        )
        tokens = np.random.default_rng(9).uniform(1.0, 2.0, size=(2, 5, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="^non-finite attention scores$"):
                attention(tokens, p)


class TestShiftGuard:
    """A window whose Q and K norms bound its scores within the score limit
    exponentiates its raw scores. A chunk holding any other window checks its
    scores and shifts that window by its row max, and each small one by 0.0."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=30),
        embed_dim=st.integers(min_value=1, max_value=8),
        attn_dim=st.integers(min_value=1, max_value=6),
        scales=st.lists(st.sampled_from([0.1, 1.0, 10.0, 100.0]), min_size=1, max_size=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_each_window_takes_its_own_branch(self, n, embed_dim, attn_dim, scales, seed):
        rng = np.random.default_rng(seed)
        p = initialize_params(4, 2, embed_dim, attn_dim, seed=seed)
        tokens = np.array(scales)[:, None, None] * rng.normal(size=(len(scales), n, embed_dim))
        frag = attention(tokens, p)
        scaled = frag.queries / math.sqrt(attn_dim)
        small = scores_are_small(scaled, frag.keys)
        for w in range(len(scales)):
            if small[w]:
                raw = scaled[w] @ frag.keys[w].T
                npt.assert_array_equal(frag.exp_scores[w], np.exp(raw))
            else:
                npt.assert_array_equal(frag.exp_scores[w].max(axis=1), 1.0)
            alone = attention(tokens[w : w + 1], p)
            for name in ("exp_scores", "row_sums", "context"):
                npt.assert_array_equal(getattr(frag, name)[w], getattr(alone, name)[0])

    @pytest.mark.parametrize(
        "scales",
        [(1.0, 100.0), (1.0, 100.0, 1.0)],  # the last pins a zeroed shift between small windows
        ids=["small-fallback", "small-fallback-small"],
    )
    def test_a_chunk_of_both_branches_keeps_each_windows_bits(self, scales):
        rng = np.random.default_rng(46)
        p = initialize_params(4, 2, 8, 4, seed=46)
        tokens = rng.normal(size=(len(scales), 12, 8)) * np.array(scales)[:, None, None]
        frag = attention(tokens, p)
        scaled = frag.queries / math.sqrt(4)
        small = np.array(scales) == 1.0
        npt.assert_array_equal(scores_are_small(scaled, frag.keys), small)
        for w in range(len(scales)):
            if small[w]:
                assert np.max(frag.exp_scores[w]) != 1.0
            else:
                npt.assert_array_equal(frag.exp_scores[w].max(axis=1), 1.0)
            alone = attention(tokens[w : w + 1], p)
            for name in ("exp_scores", "row_sums", "context"):
                npt.assert_array_equal(getattr(frag, name)[w], getattr(alone, name)[0])

    @pytest.mark.parametrize(
        "value_scale, token_scale, outcome",
        [
            (1e140, 1.0, "unshifted"),  # both windows small: raw scores exponentiated
            (1e300, 1.0, "finite"),  # small windows whose N' max |v| nears the overflow
            (3e306, 30.0, "finite"),  # values up to 7e307, scores far from 0
            (1e308, 1.0, "non-finite attention context"),  # finite values, E V overflows
            (1e308, 30.0, "non-finite attention context"),  # the values overflow
        ],
    )
    def test_huge_values_match_the_shift_everywhere(self, value_scale, token_scale, outcome):
        # a window whose scores are not small takes the shifted path, so its
        # context is the one shifting every window gives, bit for bit; a small
        # window's unshifted context equals it to rounding; where the shift
        # overflows, the guard raises too
        p = initialize_params(8, 2, 4, 4, seed=9)
        p = replace(p, w_value=p.w_value * value_scale)
        tokens = token_scale * np.random.default_rng(9).uniform(1.0, 2.0, size=(2, 5, 4))
        with np.errstate(over="ignore", invalid="ignore"):
            expo, _, context = softmax_attention_out_of_place(tokens, p, guard=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if outcome.startswith("non-finite"):
                assert not np.all(np.isfinite(context))
                with pytest.raises(NumericError, match=f"^{outcome}$"):
                    attention(tokens, p)
                return
            frag = attention(tokens, p)
        small = scores_are_small(frag.queries / math.sqrt(4), frag.keys)
        if outcome == "unshifted":
            assert np.all(small)
            assert np.all(frag.exp_scores.max(axis=-1) != 1.0)
        for w in range(len(tokens)):
            if small[w]:
                npt.assert_allclose(frag.context[w], context[w], rtol=1e-12)
            else:
                npt.assert_array_equal(frag.exp_scores[w], expo[w])
                npt.assert_array_equal(frag.context[w], context[w])

    def test_context_overflows_at_most_e64_earlier(self):
        # Every score of this window is near +60, inside the score limit, so
        # its unshifted E and E V are e^60 times the shifted ones. The
        # context equals the shifted one to rounding, but E V overflows at a
        # max |v| about 2^86.6 smaller. A row max m within the score limit
        # makes that factor e^m, never more than e^64 (2^92.3).
        n = 5
        p = initialize_params(8, 2, 4, 4, seed=5)
        a = math.sqrt(30.0)  # tokens near (1, 1, 1, 1): scores a^2 * 4 / 2
        p = replace(
            p, w_embed=0.01 * p.w_embed, b_embed=np.ones(4),
            w_query=a * np.eye(4), w_key=a * np.eye(4),
        )
        tokens = embed(np.random.default_rng(5).normal(size=(1, n, 8)), p)

        first_inf = {}
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1024):  # every value near 4 * 2^k
                grown = replace(p, w_value=np.full((4, 4), 2.0**k))
                _, _, shifted = softmax_attention_out_of_place(tokens, grown, guard=False)
                try:
                    frag = attention(tokens, grown)
                except NumericError as err:
                    assert str(err) == "non-finite attention context"
                    first_inf.setdefault("guard", k)
                else:
                    if k == 0:
                        scaled = frag.queries / math.sqrt(4)
                        assert scores_are_small(scaled, frag.keys)[0]
                        assert np.all(frag.exp_scores > math.exp(59))
                    npt.assert_allclose(frag.context, shifted, rtol=1e-12)
                if not np.all(np.isfinite(shifted)):
                    first_inf.setdefault("shift", k)
                    break
        assert 60 <= first_inf["shift"] - first_inf["guard"] <= 64 / math.log(2)

    def test_backward_overflows_where_the_shift_does(self):
        # Every score of this window is near -60, inside the score limit, so
        # its unshifted row sums are e^-60 times the shifted ones. backward
        # scales each window's row sums by the power of two 2^p that lifts
        # the smallest into [1, 2), so g = dC / rowsum(E) and the N' x N'
        # g V^T are at most N' times the shifted path's, not e^60: the
        # gradients equal the shifted ones to rounding and overflow within
        # log2(N') + 1 powers of two of where the shift does.
        n, horizon = 5, 2
        p = initialize_params(8, horizon, 4, 4, seed=5)
        a = math.sqrt(30.0)  # tokens near (1, 1, 1, 1): scores -a^2 * 4 / 2
        p = replace(
            p, w_embed=0.01 * p.w_embed, b_embed=np.ones(4),
            w_query=a * np.eye(4), w_key=-a * np.eye(4),
        )
        rows = np.random.default_rng(5).normal(size=(1, n, 8))

        def shifted(trace):
            expo, row_sums, context = softmax_attention_out_of_place(trace.tokens, p, guard=False)
            mixed = context @ p.w_out
            return replace(
                trace, exp_scores=expo, row_sums=row_sums, context=context, mixed=mixed,
                predictions=mixed @ p.w_head + p.b_head,
            )

        first_inf = {}
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1024):  # dC grows with the target's magnitude 2^k
                # backward consumes a trace's exp_scores, so each side gets its own
                trace = forward(rows, np.full((1, n, horizon), -(2.0**k)), p, range(n))
                if k == 0:
                    scaled = trace.queries / math.sqrt(4)
                    assert scores_are_small(scaled, trace.keys)[0]
                    assert np.all(trace.exp_scores < math.exp(-59))
                grads = {"shift": backward(shifted(trace), p), "guard": backward(trace, p)}
                for side, side_grads in grads.items():
                    if not all(np.all(np.isfinite(getattr(side_grads, f.name)))
                               for f in fields(side_grads)):
                        first_inf.setdefault(side, k)
                if not first_inf:
                    for f in fields(ModelParams):
                        want = getattr(grads["shift"], f.name)
                        npt.assert_allclose(getattr(grads["guard"], f.name), want, rtol=0,
                                            atol=1e-10 * np.max(np.abs(want)))
        # the shift overflows only where d_pred itself does, at 2^1023
        assert first_inf["shift"] == 1023
        assert abs(first_inf["shift"] - first_inf["guard"]) <= math.log2(n) + 1


class TestAttentionCore:
    """``_attend`` and ``_attend_backward`` on raw queries, keys and values,
    whose row counts may differ, as a query-all or sparse-KV caller's would."""

    @pytest.mark.parametrize("n_q, n_k", [(3, 5), (6, 4)])
    def test_finite_differences_of_both_branches(self, n_q, n_k):
        # The loss is sum(C * dC). Window 0's scores lie near -12.5: it is
        # inside the guard, unshifted, and its row sums near 1e-5 are scaled
        # by 2^p = 2^17 or 2^18. Window 1's norms bound its scores by 128, so
        # it is shifted, though its scores stay near 0.
        d_k = 4
        rng = np.random.default_rng(n_q * n_k)
        queries = rng.normal(scale=0.3, size=(2, n_q, d_k))
        keys = rng.normal(scale=0.3, size=(2, n_k, d_k))
        values = rng.normal(size=(2, n_k, d_k))
        d_context = rng.normal(size=(2, n_q, d_k))
        queries[0] += 2.5
        keys[0] -= 2.5
        queries[1, :, 0] += 16.0
        keys[1, :, 1] += 16.0
        inputs = {"queries": queries, "keys": keys, "values": values}
        small = scores_are_small(queries / math.sqrt(d_k), keys)
        npt.assert_array_equal(small, [True, False])

        exp_scores, row_sums, context = model._attend(queries, keys, values)
        assert row_sums[0].min() < 1.0 <= row_sums[1].min()
        frag = model.AttentionFragment(
            queries=queries, keys=keys, values=values, exp_scores=exp_scores,
            row_sums=row_sums, context=context,
        )
        grads = model._attend_backward(frag, d_context.copy())
        analytic = dict(zip(inputs, grads))

        def loss(**bumped):
            context = model._attend(**{**inputs, **bumped})[2]
            return math.fsum((context * d_context).ravel())

        step = 1e-5
        numeric = {}
        for name, array in inputs.items():
            numeric[name] = np.zeros(array.shape)
            for idx in np.ndindex(array.shape):
                sides = []
                for bump in (step, -step):
                    moved = array.copy()
                    moved[idx] += bump
                    sides.append(loss(**{name: moved}))
                numeric[name][idx] = (sides[0] - sides[1]) / (2.0 * step)
        assert max_rel_error(analytic, numeric) < 1e-5

    def test_only_the_core_names_the_score_limit_and_the_block(self):
        # the guard and the row blocks are decided inside the core alone, so
        # a change to what attends to what (sparse keys, heads, recompute)
        # reopens no other function
        tree = ast.parse(Path(model.__file__).read_text())
        owners = {"_SCORE_LIMIT": set(), "_BACKWARD_BLOCK": set()}
        for node in tree.body:
            for name in ast.walk(node):
                if (isinstance(name, ast.Name) and name.id in owners
                        and isinstance(name.ctx, ast.Load)):
                    owners[name.id].add(getattr(node, "name", None))
        for constant, users in owners.items():
            assert users and users <= {"_attend", "_attend_backward"}, (constant, users)


class TestSgdStep:
    def test_moves_against_gradient(self):
        p = initialize_params(8, 2, 4, 2, seed=16)
        g = _zero_grads_like(p)
        bumped = ModelParams(
            **{
                name: getattr(p, name) + 0.0
                for name in ModelParams.__dataclass_fields__
            }
        )
        stepped = sgd_step(bumped, g, 0.5)
        npt.assert_array_equal(stepped.w_embed, p.w_embed)

    def test_arithmetic(self):
        rng = np.random.default_rng(17)
        p = initialize_params(8, 2, 4, 2, seed=17)
        window = make_window(rng, n=3, lookback=8, horizon=2)
        g = backward(forward(window.data, window.horizon, p, (0, 1)), p)
        stepped = sgd_step(p, g, 0.1)
        npt.assert_allclose(stepped.w_query, p.w_query - 0.1 * g.w_query, rtol=1e-15)
        # inputs untouched
        assert not np.shares_memory(stepped.w_query, p.w_query)

    def test_lr_validation(self):
        p = initialize_params(8, 2, 4, 2, seed=0)
        with pytest.raises(ParameterError):
            sgd_step(p, _zero_grads_like(p), 0.0)


class TestCountFlops:
    def test_scores_stage_exact(self):
        for n, dk in ((8, 4), (64, 32), (321, 16)):
            ledger = count_flops(n, lookback=96, embed_dim=64, attn_dim=dk, horizon=24)
            assert ledger.scores == 2 * n * n * dk

    def test_halving_tokens_quarters_scores(self):
        full = count_flops(64, 96, 32, 16, 24)
        half = count_flops(32, 96, 32, 16, 24)
        assert half.scores * 4 == full.scores
        assert half.softmax * 4 == full.softmax
        assert half.context * 4 == full.context

    def test_attention_ratio_quadratic_in_keep_rate(self):
        dense = count_flops(64, 96, 32, 16, 24)
        for delta in (0.0, 0.25, 0.5, 0.75):
            kept = count_flops(int((1 - delta) * 64), 96, 32, 16, 24)
            assert kept.attention / dense.attention == (1 - delta) ** 2

    def test_matches_shape_walk(self):
        # recount from the matmul shapes of an actual forward trace
        rng = np.random.default_rng(18)
        window = make_window(rng, n=5, lookback=16, horizon=4)
        p = initialize_params(16, 4, 8, 4, seed=18)
        retained = (0, 1, 2, 4)
        trace = forward(window.data, window.horizon, p, retained)
        _, n, d = trace.tokens.shape
        dk = trace.queries.shape[2]
        t = window.lookback
        h = trace.predictions.shape[2]
        ledger = count_flops(n, t, d, dk, h)
        assert ledger.embed == 2 * n * t * d + n * d
        assert ledger.qkv == 3 * (2 * n * d * dk)
        assert ledger.scores == 2 * n * n * dk
        assert ledger.softmax == 4 * n * n
        assert ledger.context == 2 * n * n * dk
        assert ledger.head == 2 * n * dk * d + 2 * n * d * h + n * h
        assert ledger.total == sum(
            (ledger.embed, ledger.qkv, ledger.scores,
             ledger.softmax, ledger.context, ledger.head)
        )

    def test_validation(self):
        with pytest.raises(ParameterError):
            count_flops(0, 96, 64, 32, 24)


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert (cfg.k, cfg.epsilon, cfg.gs) == (3, 25, 10)
        assert cfg.vardrop_on

    def test_validation(self):
        with pytest.raises(ParameterError):
            RunConfig(k=0)
        with pytest.raises(ParameterError):
            RunConfig(k=5, epsilon=4)
        with pytest.raises(ParameterError):
            RunConfig(gs=0)
        with pytest.raises(ParameterError):
            RunConfig(lr=0.0)

    def test_one_class_with_the_training_keys_first(self):
        # train_epoch takes the run's one config; the model module keeps the
        # old name as an alias only, outside the package's namespace
        assert not hasattr(vardrop, "TrainSettings")
        assert model.TrainSettings is vardrop.RunConfig
        assert RunConfig.__mro__ == (RunConfig, object)
        names = [f.name for f in fields(RunConfig)]
        assert names[:6] == ["k", "epsilon", "gs", "lr", "seed", "vardrop_on"]


def make_batches(seed=19, n=16, g=4, length=600, lookback=48, horizon=8,
                 stride=16, batch=8, sigma=0.05):
    table = synth_redundant_detail(n, g, length, sigma, seed=seed).table
    windows = sliding_windows(table, lookback, horizon, stride)
    return batch_windows(windows, batch)


class TestTrainEpoch:
    def test_off_equals_generous_budget(self):
        batches = make_batches()
        p0 = initialize_params(48, 8, 16, 8, seed=19)
        cfg_off = RunConfig(k=3, epsilon=24, gs=16, lr=0.02, seed=19,
                            vardrop_on=False)
        cfg_on = RunConfig(k=3, epsilon=24, gs=16, lr=0.02, seed=19,
                           vardrop_on=True)
        p_off, m_off = train_epoch(batches, p0, cfg_off)
        p_on, m_on = train_epoch(batches, p0, cfg_on)
        npt.assert_array_equal(p_off.w_embed, p_on.w_embed)
        npt.assert_array_equal(p_off.w_head, p_on.w_head)
        assert [m.loss for m in m_off] == [m.loss for m in m_on]
        assert [m.flops for m in m_off] == [m.flops for m in m_on]
        assert all(m.delta == 0.0 for m in m_on)
        assert all(m.tokens_used == 16 for m in m_on)

    def test_reduction_metrics_consistent(self):
        batches = make_batches()
        p0 = initialize_params(48, 8, 16, 8, seed=20)
        cfg = RunConfig(k=3, epsilon=24, gs=2, lr=0.02, seed=20, vardrop_on=True)
        _, metrics = train_epoch(batches, p0, cfg, epoch=3)
        for i, m in enumerate(metrics):
            assert m.epoch == 3
            assert m.batch_index == i
            assert m.delta == 1.0 - m.tokens_used / 16.0
            ledger = count_flops(m.tokens_used, 48, 16, 8, 8)
            assert m.flops == batches[i].size * ledger.total
        # four prototype groups, two kept each
        assert all(m.tokens_used == 8 for m in metrics)
        assert all(m.delta == 0.5 for m in metrics)

    def test_loss_decreases_over_epochs(self):
        batches = make_batches()
        params = initialize_params(48, 8, 16, 8, seed=21)
        cfg = RunConfig(k=3, epsilon=24, gs=2, lr=0.02, seed=21, vardrop_on=True)
        first = last = None
        for epoch in range(20):
            params, metrics = train_epoch(batches, params, cfg, epoch)
            mean_loss = sum(m.loss for m in metrics) / len(metrics)
            first = mean_loss if first is None else first
            last = mean_loss
        assert last < first

    def test_representatives_rotate_across_batches(self):
        batches = make_batches()
        p0 = initialize_params(48, 8, 16, 8, seed=22)
        cfg = RunConfig(k=3, epsilon=24, gs=1, lr=0.02, seed=22, vardrop_on=True)
        from vardrop import derive_seed, group_by_hash, kdfh, stratified_sample

        seen = set()
        for i, batch in enumerate(batches):
            plan = stratified_sample(
                group_by_hash(kdfh(batch, 3, 24)),
                1,
                derive_seed(22, f"0:{i}"),
            )
            seen.update(plan.retained)
        assert len(seen) > 4  # more variates than one fixed set of reps

    def test_metrics_match_plan_batch(self):
        batches = make_batches(sigma=1.0)  # noisy enough that groups vary by batch
        p0 = initialize_params(48, 8, 16, 8, seed=28)
        cfg = RunConfig(k=3, epsilon=24, gs=1, lr=0.02, seed=28, vardrop_on=True)
        _, metrics = train_epoch(batches, p0, cfg, epoch=2)
        plans = [plan_batch(batch, cfg, 2, i) for i, batch in enumerate(batches)]
        assert [m.tokens_used for m in metrics] == [len(p.retained) for p in plans]
        assert [m.delta for m in metrics] == [p.delta for p in plans]
        assert len({m.tokens_used for m in metrics}) > 1
        # the first step starts from p0, so its loss pins the retained set too
        batch = batches[0]
        first = [
            forward(batch.data[b : b + 1], batch.horizon[b : b + 1], p0, plans[0].retained)
            .losses[0]
            for b in range(batch.size)
        ]
        assert metrics[0].loss == sum(first) / batches[0].size

    @pytest.mark.parametrize("vardrop_on", [False, True])
    @pytest.mark.parametrize("lr", [1e8, 1e60])
    def test_divergence_is_a_numeric_error(self, vardrop_on, lr):
        # warnings are errors here, so an overflow warning in the gradient
        # sums or the update would escape before forward's finiteness check
        table = synth_redundant_detail(16, 8, 2000, 0.05, seed=7, period=96).table
        train, _, _ = chronological_split(table, SplitSpec(0.7, 0.1, 0.2))
        batches = batch_windows(sliding_windows(train, 96, 16, 1), 8)
        params = initialize_params(96, 16, 16, 8, seed=7)
        cfg = RunConfig(lr=lr, seed=7, vardrop_on=vardrop_on)
        with pytest.raises(NumericError):
            for epoch in range(3):
                params, _ = train_epoch(batches, params, cfg, epoch)

    def test_requires_horizons(self):
        table = synth_redundant_detail(4, 2, 200, 0.0, seed=23).table
        windows = sliding_windows(table, 48, 0, 16)
        batches = batch_windows(windows, 4)
        p0 = initialize_params(48, 8, 8, 4, seed=23)
        with pytest.raises(ParameterError):
            train_epoch(batches, p0, RunConfig(epsilon=24))

    def test_empty_rejected(self):
        p0 = initialize_params(48, 8, 8, 4, seed=0)
        with pytest.raises(ParameterError):
            train_epoch([], p0, RunConfig(epsilon=24))


def assert_same_run(got, want):
    """Bit-identical parameters and batch metrics."""
    (p_got, m_got), (p_want, m_want) = got, want
    for f in fields(p_got):
        npt.assert_array_equal(getattr(p_got, f.name), getattr(p_want, f.name))
    assert m_got == m_want


# A chunk's weight gradients are summed inside a gemm, so a chunked step can
# differ from the window loop in the last bits. Over 10,000 draws of
# test_matches_the_window_loop on the default OpenBLAS core and 2,500 under
# OPENBLAS_CORETYPE=Sandybridge, the worst error was 1.2e-13 of an array's
# largest entry and 2.4e-16 of a batch loss; LOOP_TOL is 50 times the first.
LOOP_TOL = 6e-12


def assert_close(got, want, err_msg=""):
    """Each entry within ``LOOP_TOL`` of the largest entry of ``want``."""
    npt.assert_allclose(got, want, rtol=0, atol=LOOP_TOL * np.max(np.abs(want)),
                        err_msg=err_msg)


def assert_close_run(got, want):
    """Parameters and batch losses within ``LOOP_TOL``, every other metric equal."""
    (p_got, m_got), (p_want, m_want) = got, want
    for f in fields(p_got):
        assert_close(getattr(p_got, f.name), getattr(p_want, f.name), err_msg=f.name)
    assert [replace(m, loss=0.0) for m in m_got] == [replace(m, loss=0.0) for m in m_want]
    assert_close([m.loss for m in m_got], [m.loss for m in m_want])


@pytest.fixture
def forward_sizes(monkeypatch):
    """Record the stack size of every forward call train_epoch makes."""
    sizes = []
    real = model.forward

    def recording(data, *args):
        sizes.append(len(data))
        return real(data, *args)

    monkeypatch.setattr(model, "forward", recording)
    return sizes


class TestChunkedStep:
    def test_stack_matches_windows_one_at_a_time(self):
        # forward and dS keep each window's bits; the summed gradients match
        # the windows' gradients added one by one to within LOOP_TOL
        batch = make_batches()[0]
        p = initialize_params(48, 8, 16, 8, seed=40)
        retained = (0, 3, 5, 6, 9, 15)
        stacked = forward(batch.data, batch.horizon, p, retained)
        grads = backward(stacked, p)
        assert stacked.predictions.shape == (batch.size, 6, 8)
        singles = []
        for i in range(batch.size):
            alone = forward(batch.data[i : i + 1], batch.horizon[i : i + 1], p, retained)
            npt.assert_array_equal(stacked.predictions[i], alone.predictions[0])
            assert stacked.losses[i] == alone.losses[0]
            singles.append(backward(alone, p))
            npt.assert_array_equal(stacked.exp_scores[i], alone.exp_scores[0])
        for f in fields(grads):
            want = sum(getattr(single, f.name) for single in singles)
            assert getattr(grads, f.name).shape == getattr(p, f.name).shape
            assert_close(getattr(grads, f.name), want, err_msg=f.name)

    def test_stack_validation(self):
        rng = np.random.default_rng(41)
        p = initialize_params(16, 4, 8, 4, seed=41)
        window = make_window(rng)
        with pytest.raises(ParameterError):
            forward(np.zeros((0, 6, 16)), np.zeros((0, 6, 4)), p, (0,))
        with pytest.raises(ParameterError):
            forward(window.data, np.zeros((1, 5, 4)), p, (0, 1))  # horizon shape
        with pytest.raises(ParameterError):
            forward(window.data, make_window(rng, horizon=3).horizon, p, (0, 1))

    def test_one_overflowing_window_in_a_chunk_raises(self):
        rng = np.random.default_rng(42)
        windows = [make_window(rng) for _ in range(3)]
        data = np.concatenate([w.data for w in windows])
        data[1] *= 1e200
        batch = WindowBatch(data, np.concatenate([w.horizon for w in windows]))
        p = initialize_params(16, 4, 8, 4, seed=42)
        with pytest.raises(NumericError):
            forward(batch.data, batch.horizon, p, range(6))
        assert model._chunk_size(6, p) >= batch.size
        with pytest.raises(NumericError):
            train_epoch([batch], p, RunConfig(epsilon=8, vardrop_on=False))

    @pytest.mark.parametrize("vardrop_on", [False, True])
    def test_overflowing_update_is_a_numeric_error(self, vardrop_on):
        # gradients near 1e100 are finite, but times lr=1e250 the update makes
        # the weights infinite; the second batch's forward reports it, silently
        rng = np.random.default_rng(45)
        batches = [
            WindowBatch(rng.normal(size=(4, 6, 16)) * 1e50, rng.normal(size=(4, 6, 4)) * 1e50)
            for _ in range(2)
        ]
        p = initialize_params(16, 4, 8, 4, seed=45)
        cfg = RunConfig(k=2, epsilon=8, gs=2, lr=1e250, vardrop_on=vardrop_on)
        with pytest.raises(NumericError, match="^non-finite attention scores$"):
            train_epoch(batches, p, cfg)

    def test_chunk_size_shrinks_to_one_as_tokens_grow(self):
        # the widths and chunk sizes of the _CHUNK_BUDGET timing table
        p = initialize_params(96, 96, 64, 32, seed=0)
        sizes = [model._chunk_size(n, p) for n in range(1, 900)]
        assert all(a >= b >= 1 for a, b in zip(sizes, sizes[1:]))
        widths = (8, 16, 32, 64, 128, 321, 862)
        assert [model._chunk_size(n, p) for n in widths] == [72, 35, 17, 8, 4, 1, 1]

    @pytest.mark.parametrize("vardrop_on", [False, True])
    def test_partial_last_chunk_matches_the_window_loop(self, monkeypatch, forward_sizes,
                                                         vardrop_on):
        batches = make_batches(sigma=1.0, batch=11)
        p0 = initialize_params(48, 8, 16, 8, seed=43)
        cfg = RunConfig(k=3, epsilon=24, gs=1, lr=0.02, seed=43, vardrop_on=vardrop_on)
        monkeypatch.setattr(model, "_CHUNK_BUDGET", 8_000)
        got = train_epoch(batches, p0, cfg, epoch=1)
        assert max(forward_sizes) > 1
        assert any(batch.size % model._chunk_size(m.tokens_used, p0)
                   for batch, m in zip(batches, got[1]))
        assert len(forward_sizes) > len(batches)
        assert sum(forward_sizes) == sum(b.size for b in batches)
        assert_close_run(got, reference_train_epoch(batches, p0, cfg, epoch=1))

    @pytest.mark.parametrize("budget", [8_000, model._CHUNK_BUDGET])
    def test_runs_at_one_budget_give_the_same_bytes(self, monkeypatch, forward_sizes, budget):
        batches = make_batches(sigma=1.0, batch=11)
        p0 = initialize_params(48, 8, 16, 8, seed=47)
        cfg = RunConfig(k=3, epsilon=24, gs=1, lr=0.02, seed=47)
        monkeypatch.setattr(model, "_CHUNK_BUDGET", budget)
        runs = [train_epoch(batches, p0, cfg, epoch=1) for _ in range(2)]
        assert max(forward_sizes) > 1
        (p_a, m_a), (p_b, m_b) = runs
        for f in fields(p_a):
            assert getattr(p_a, f.name).tobytes() == getattr(p_b, f.name).tobytes()
        assert m_a == m_b

    def test_chunk_of_one_keeps_the_bits(self, monkeypatch, forward_sizes):
        batches = make_batches()
        p0 = initialize_params(48, 8, 16, 8, seed=44)
        cfg = RunConfig(k=3, epsilon=24, gs=2, lr=0.02, seed=44)
        monkeypatch.setattr(model, "_CHUNK_BUDGET", 1)
        got = train_epoch(batches, p0, cfg)
        assert set(forward_sizes) == {1}
        assert_same_run(got, reference_train_epoch(batches, p0, cfg))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=80),
        groups=st.integers(min_value=1, max_value=80),
        n_windows=st.integers(min_value=1, max_value=60),
        batch=st.integers(min_value=1, max_value=40),
        lookback=st.integers(min_value=10, max_value=40),
        horizon=st.integers(min_value=1, max_value=16),
        embed_dim=st.integers(min_value=1, max_value=12),
        attn_dim=st.integers(min_value=1, max_value=8),
        gs=st.integers(min_value=1, max_value=4),
        vardrop_on=st.booleans(),
        budget=st.one_of(st.just(1), st.integers(1, 50_000), st.just(model._CHUNK_BUDGET)),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_matches_the_window_loop(self, n, groups, n_windows, batch, lookback, horizon,
                                     embed_dim, attn_dim, gs, vardrop_on, budget, seed):
        stride = 3
        rng = np.random.default_rng(seed)
        length = lookback + horizon + stride * (n_windows - 1)
        # variates repeat noisy copies of a few random prototypes, so hashing
        # finds groups of several members and gs thins them
        prototypes = rng.normal(size=(min(groups, n), length))
        values = prototypes[np.arange(n) % len(prototypes)] + 0.1 * rng.normal(size=(n, length))
        table = SeriesTable(tuple(f"v{i}" for i in range(n)), values)
        batches = batch_windows(sliding_windows(table, lookback, horizon, stride), batch)
        p0 = initialize_params(lookback, horizon, embed_dim, attn_dim, seed=seed)
        cfg = RunConfig(k=2, epsilon=5, gs=gs, lr=1e-3, seed=seed, vardrop_on=vardrop_on)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model, "_CHUNK_BUDGET", budget)
            got = train_epoch(batches, p0, cfg, epoch=seed % 3)
        assert_close_run(got, reference_train_epoch(batches, p0, cfg, epoch=seed % 3))


def writable_copy(batch):
    """The same windows over fresh writable arrays, which the batch copies."""
    return WindowBatch(np.array(batch.data, copy=True), np.array(batch.horizon, copy=True))


@pytest.fixture
def kdfh_calls(monkeypatch):
    """Count the kdfh calls hash_groups makes through model's globals."""
    import vardrop.model as model

    calls = []
    real = model.kdfh

    def counting(batch, *args, **kwargs):
        calls.append(batch)
        return real(batch, *args, **kwargs)

    monkeypatch.setattr(model, "kdfh", counting)
    return calls


class TestHashGroups:
    def test_table_views_hash_once_per_batch(self, kdfh_calls):
        batches = make_batches()
        params = initialize_params(48, 8, 16, 8, seed=32)
        cfg = RunConfig(k=3, epsilon=24, gs=2, lr=0.02, seed=32)
        for epoch in range(3):
            params, _ = train_epoch(batches, params, cfg, epoch)
        assert len(kdfh_calls) == len(batches)
        assert [id(b) for b in kdfh_calls] == [id(b) for b in batches]

    def test_dense_plan_keeps_every_variate_and_hashes_nothing(self, kdfh_calls):
        batches = make_batches()
        on = RunConfig(k=3, epsilon=24, gs=2, lr=0.02, seed=39)
        off = replace(on, vardrop_on=False)
        for i, batch in enumerate(batches):
            plan = plan_batch(batch, off, 2, i)
            assert plan.retained == tuple(range(batch.n_variates))
            assert plan.delta == 0.0
            assert plan.per_group == {}
            assert plan.seed == plan_batch(writable_copy(batch), on, 2, i).seed
        assert len(kdfh_calls) == len(batches)  # the reduced plans' hashes only
        params = initialize_params(48, 8, 16, 8, seed=39)
        train_epoch(batches, params, off)
        assert len(kdfh_calls) == len(batches)
        assert not any(b.memo for b in batches)

    def test_only_hash_settings_rehash(self, kdfh_calls):
        batches = make_batches()
        cfg = RunConfig(k=3, epsilon=24, gs=2, lr=0.02, seed=33)

        def plan_all(config):
            before = len(kdfh_calls)
            for i, batch in enumerate(batches):
                plan_batch(batch, config, 0, i)
            return len(kdfh_calls) - before

        assert plan_all(cfg) == len(batches)
        for same in (replace(cfg, gs=1), replace(cfg, seed=34), replace(cfg, lr=0.5)):
            assert plan_all(same) == 0
        # a new k or epsilon hashes each batch once, and a repeat reuses it
        for other in (replace(cfg, k=2), replace(cfg, epsilon=20)):
            assert plan_all(other) == len(batches)
            assert plan_all(other) == 0
        assert plan_all(cfg) == 0

    @pytest.mark.parametrize("gs", [2, 16])
    def test_memo_gives_the_same_bits(self, kdfh_calls, gs):
        # gs=16 keeps every variate, so forward gathers every row
        views = make_batches()
        copies = [writable_copy(b) for b in views]
        assert not any(np.shares_memory(c.data, v.data) for c, v in zip(copies, views))
        cfg = RunConfig(k=3, epsilon=24, gs=gs, lr=0.02, seed=35)
        runs = []
        for batches in (views, copies):
            params = initialize_params(48, 8, 16, 8, seed=35)
            metrics = []
            for epoch in range(3):
                params, m = train_epoch(batches, params, cfg, epoch)
                metrics.extend(m)
            runs.append((params, metrics))
        (p_views, m_views), (p_copies, m_copies) = runs
        for f in fields(p_views):
            npt.assert_array_equal(getattr(p_views, f.name), getattr(p_copies, f.name))
        assert m_views == m_copies
        assert all(b.memo for b in views)
        assert all(b.memo for b in copies)
        # three epochs over either kind of batch hash each batch once
        assert [id(b) for b in kdfh_calls] == [id(b) for b in views + copies]

    def test_later_writes_to_the_input_change_nothing(self, kdfh_calls):
        data = np.array(make_batches()[0].data, copy=True)
        no_horizon = np.zeros((*data.shape[:2], 0))
        batch = WindowBatch(data, no_horizon)
        kept = batch.data.copy()
        cfg = RunConfig(k=3, epsilon=24, gs=1, lr=0.02, seed=36)
        before = plan_batch(batch, cfg, 0, 0)
        assert len(before.retained) == 4  # four prototype groups, one kept each
        # give every variate its own dominant bin: all singletons, all kept
        steps = np.arange(batch.lookback)
        for i in range(batch.n_variates):
            data[:, i] = np.sin(2 * np.pi * (i + 1) * steps / batch.lookback)
        npt.assert_array_equal(batch.data, kept)
        assert plan_batch(batch, cfg, 0, 0) == before
        assert len(kdfh_calls) == 1
        # a new batch over the written array sees the change
        after = plan_batch(WindowBatch(data, no_horizon), cfg, 0, 0)
        assert after.retained == tuple(range(batch.n_variates))
        assert len(kdfh_calls) == 2

    def test_read_only_view_of_writable_data_is_copied(self, kdfh_calls):
        rng = np.random.default_rng(37)
        base = rng.normal(size=(1, 6, 16))
        view = base.view()
        view.flags.writeable = False
        batch = WindowBatch(view, np.zeros((1, 6, 0)))
        assert not np.shares_memory(batch.data, base)
        cfg = RunConfig(k=2, epsilon=8)
        first = hash_groups(batch, cfg)
        base[:] = 0.0
        assert hash_groups(batch, cfg) is first
        assert len(kdfh_calls) == 1
        assert list(batch.memo) == [("hash_groups", 2, 8)]
        hash_groups(batch, RunConfig(k=3, epsilon=8))
        hash_groups(batch, RunConfig(k=2, epsilon=6))
        # one entry per (k, epsilon) and no other
        assert list(batch.memo) == [("hash_groups", k, e) for k, e in ((2, 8), (3, 8), (2, 6))]

    def test_every_k_equals_its_own_kdfh(self, kdfh_calls):
        from vardrop import group_by_hash, kdfh

        batch = make_batches(sigma=0.5)[0]
        for k in range(1, 25):
            cfg = RunConfig(k=k, epsilon=24)
            want = group_by_hash(kdfh(batch, k, 24))
            # in the same group order too, which the sampling and reports follow
            assert list(hash_groups(batch, cfg).groups.items()) == list(want.groups.items())
        assert len(kdfh_calls) == 24

    def test_runs_over_two_ks_hash_each_batch_once_per_k(self, kdfh_calls):
        # a k x gs grid is a loop over run on batches built once
        train, val = golden_split_batches()
        # 1400 training steps in windows of 96 + 16 at stride 16: 81 windows
        assert len(train) == math.ceil(81 / 8)
        config = RunConfig(T=96, H=16, d=16, d_k=8, epochs=1, seed=7)
        for k in (2, 3):
            for gs in (1, 2):
                run(replace(config, k=k, gs=gs), train, val)
        hashed = [id(b) for b in kdfh_calls]
        assert len(hashed) == 2 * len(train)
        assert len(set(hashed)) == len(train)

    def test_run_on_hashed_batches_equals_a_run_on_fresh_ones(self, kdfh_calls):
        config = RunConfig(T=96, H=16, d=16, d_k=8, epochs=2, seed=7, k=3, gs=2)
        shared = golden_split_batches()
        for k, gs in ((2, 1), (3, 1)):
            run(replace(config, k=k, gs=gs), *shared)
        before = len(kdfh_calls)
        got = run(config, *shared)
        assert len(kdfh_calls) == before  # every batch's k=3 groups were memoized
        want = run(config, *golden_split_batches())
        assert_same_run((got.params, got.metrics), (want.params, want.metrics))
        assert got.val_loss == want.val_loss

    def test_delta_does_not_increase_as_gs_grows(self):
        batches = make_batches(sigma=0.5)
        config = RunConfig(k=3, epsilon=24)
        for i, batch in enumerate(batches):
            largest = max(map(len, hash_groups(batch, config).groups.values()))
            deltas = [
                plan_batch(batch, replace(config, gs=gs), 0, i).delta
                for gs in range(1, largest + 2)
            ]
            assert all(a >= b for a, b in zip(deltas, deltas[1:]))
            assert deltas[0] > deltas[-1]

    def test_gs_of_the_largest_group_or_more_gives_zero_delta(self):
        batches = make_batches(sigma=0.5)
        for k in (2, 3):
            config = RunConfig(k=k, epsilon=24)
            for i, batch in enumerate(batches):
                largest = max(map(len, hash_groups(batch, config).groups.values()))
                assert plan_batch(batch, replace(config, gs=largest - 1), 0, i).delta > 0.0
                for gs in (largest, largest + 1, 16):
                    assert plan_batch(batch, replace(config, gs=gs), 0, i).delta == 0.0

    def test_grid_of_runs_gives_one_cell_per_k_and_gs(self, kdfh_calls):
        config = RunConfig(
            synth_n=8, synth_g=2, synth_length=400, synth_sigma=0.05, T=24, H=8,
            epsilon=12, B=8, stride=8, d=8, d_k=4, lr=0.01, epochs=1, seed=5,
        )
        train, val = split_batches(load_table(config), config)
        ks, gss = (2, 3, 4, 5), range(1, 10)
        cells = {}
        for k in ks:
            for gs in gss:
                result = run(replace(config, k=k, gs=gs), train, val)
                assert len(result.metrics) == len(train)
                deltas = [m.delta for m in result.metrics]
                cells[k, gs] = sum(deltas) / len(deltas)
        assert list(cells) == [(k, gs) for k in ks for gs in gss]
        for k in ks:
            deltas = [cells[k, gs] for gs in gss]
            assert all(a >= b for a, b in zip(deltas, deltas[1:]))
            assert deltas[-1] == 0.0  # gs=9 covers all 8 variates
        # k-major: each batch is hashed once per k, not once per cell
        assert len(kdfh_calls) == len(ks) * len(train)


class TestPredictFull:
    def test_matches_dense_forward(self):
        rng = np.random.default_rng(24)
        window = make_window(rng, n=5, lookback=16, horizon=4)
        p = initialize_params(16, 4, 8, 4, seed=24)
        trace = forward(window.data, window.horizon, p, range(5))
        npt.assert_array_equal(predict_full(window.data[0], p), trace.predictions[0])

    def test_equals_dense_forward_on_table_views(self):
        # predict_full embeds the window's strided view of the table; forward
        # embeds a gathered copy. Both must give the same bits.
        table = synth_redundant_detail(7, 3, 120, 0.1, seed=29).table
        p = initialize_params(32, 4, 8, 4, seed=29)
        windows = sliding_windows(table, 32, 4, 20)
        assert not windows.data.flags.c_contiguous
        for b in range(windows.size):
            data, horizon = windows.data[b : b + 1], windows.horizon[b : b + 1]
            dense = forward(data, horizon, p, range(7)).predictions[0]
            npt.assert_array_equal(predict_full(data[0], p), dense)

    def test_no_horizon_needed(self):
        rng = np.random.default_rng(25)
        window = rng.normal(size=(5, 16))
        p = initialize_params(16, 4, 8, 4, seed=25)
        assert predict_full(window, p).shape == (5, 4)

    def test_window_of_no_variates_is_refused(self):
        p = initialize_params(16, 4, 8, 4, seed=25)
        with pytest.raises(ParameterError, match="N' >= 1"):
            predict_full(np.zeros((0, 16)), p)

    def test_permuting_variates_permutes_predictions(self):
        rng = np.random.default_rng(26)
        window = make_window(rng, n=7, lookback=16, horizon=4)
        p = initialize_params(16, 4, 8, 4, seed=26)
        perm = rng.permutation(7)
        permuted = window.data[0, perm]
        base = predict_full(window.data[0], p)
        npt.assert_allclose(predict_full(permuted, p), base[perm], rtol=1e-12)


class TestValidationLoss:
    def test_manual_recompute(self):
        rng = np.random.default_rng(27)
        table = synth_redundant_detail(6, 2, 200, 0.05, seed=27).table
        windows = sliding_windows(table, 32, 4, 32)
        batches = batch_windows(windows, 2)
        p = initialize_params(32, 4, 8, 4, seed=27)
        got = validation_loss(p, batches)
        sq = 0.0
        count = 0
        for b in batches:
            for data, horizon in zip(b.data, b.horizon):
                preds = predict_full(data, p)
                sq += float(np.sum((preds - horizon) ** 2))
                count += preds.size
        assert abs(got - sq / count) < 1e-15

    @pytest.mark.parametrize("horizon", [0, 2])
    def test_horizon_must_match_the_model(self, horizon):
        table = synth_redundant_detail(6, 2, 200, 0.05, seed=28).table
        batches = batch_windows(sliding_windows(table, 32, horizon, 32), 2)
        p = initialize_params(32, 4, 8, 4, seed=28)
        message = f"^validation batches need horizons of length 4, got {horizon}$"
        with pytest.raises(ParameterError, match=message):
            validation_loss(p, batches)


@pytest.fixture
def workers(monkeypatch):
    """Set the worker pool's size for one test."""
    return lambda n: monkeypatch.setattr(model, "_WORKERS", n)


def pooled_config_and_batches(**overrides):
    """Training and validation batches of 64 noise variates at the budget
    table's N'=64 shapes, where a window fits ``_CHUNK_BUDGET`` and a chunk
    holds 8 of them: 61 training windows in batches of 32 and 29, and 25
    validation windows. A stretch of the training split is 30 times larger,
    so some of its windows take attention's shifted path."""
    keys = dict(k=3, epsilon=25, gs=2, lr=1e-4, seed=61, T=96, H=96, B=32, stride=16,
                d=64, d_k=32, epochs=1, train_frac=0.6, val_frac=0.3, test_frac=0.1)
    config = RunConfig(**{**keys, **overrides})
    values = np.random.default_rng(61).normal(size=(64, 1920))
    values[:, 400:700] *= 30
    table = SeriesTable(tuple(f"v{i}" for i in range(64)), values)
    return config, *split_batches(table, config)


def assert_same_bytes(got, want):
    for f in fields(want):
        assert getattr(got, f.name).tobytes() == getattr(want, f.name).tobytes(), f.name


@pytest.fixture
def calls_beside(monkeypatch):
    """Wrap ``forward`` and ``predict_full`` as the training and validation
    loops call them: record each call's variate count, whether it ran in the
    test's thread, and how many wrapped calls ran at once as it started."""
    caller = threading.get_ident()
    lock = threading.Lock()
    running = [0]
    calls = []

    def counting(real, n_variates):
        def wrapper(*args):
            with lock:
                running[0] += 1
                calls.append((n_variates(args), threading.get_ident() == caller, running[0]))
            try:
                time.sleep(0.01)  # so that pooled calls overlap
                return real(*args)
            finally:
                with lock:
                    running[0] -= 1

        return wrapper

    monkeypatch.setattr(model, "forward", counting(model.forward, lambda a: len(a[3])))
    monkeypatch.setattr(model, "predict_full", counting(model.predict_full, lambda a: len(a[0])))
    return calls


class TestWorkerPool:
    def test_the_pooled_fixture_pools_and_shifts(self):
        config, train, val = pooled_config_and_batches()
        p0 = initialize_params(96, 96, 64, 32, seed=61)
        assert [b.size for b in train] == [32, 29] and [b.size for b in val] == [25]
        assert model._window_values(64, p0) <= model._CHUNK_BUDGET
        assert model._chunk_size(64, p0) == 8
        tokens = embed(train[0].data, p0)
        small = scores_are_small(tokens @ p0.w_query / math.sqrt(32), tokens @ p0.w_key)
        assert small.any() and not small.all()

    @pytest.mark.parametrize("vardrop_on", [False, True])
    def test_train_epoch_gives_the_same_bytes_at_one_and_two_workers(
        self, workers, calls_beside, vardrop_on
    ):
        config, train, _ = pooled_config_and_batches(vardrop_on=vardrop_on)
        p0 = initialize_params(96, 96, 64, 32, seed=61)
        workers(1)
        alone = train_epoch(train, p0, config, 1)
        assert all(in_caller for _, in_caller, _ in calls_beside)
        calls_beside.clear()
        workers(2)
        pooled = train_epoch(train, p0, config, 1)
        assert not all(in_caller for _, in_caller, _ in calls_beside)
        assert max(beside for _, _, beside in calls_beside) == 2
        assert_same_bytes(pooled[0], alone[0])
        assert pooled[1] == alone[1]

    def test_validation_loss_is_the_same_at_one_and_two_workers(self, workers, calls_beside):
        _, _, val = pooled_config_and_batches()
        p = initialize_params(96, 96, 64, 32, seed=62)
        workers(1)
        alone = validation_loss(p, val)
        workers(2)
        assert validation_loss(p, val) == alone
        assert max(beside for _, _, beside in calls_beside) == 2

    def test_run_gives_the_same_bytes_at_one_and_two_workers(self, workers):
        config, train, val = pooled_config_and_batches()
        workers(1)
        alone = run(config, train, val)
        workers(2)
        pooled = run(config, train, val)
        assert_same_bytes(pooled.params, alone.params)
        assert pooled.metrics == alone.metrics
        assert pooled.val_loss == alone.val_loss

    def test_more_workers_than_cpus_switching_often_keep_the_bytes(self, workers):
        # the workers share only read-only inputs; thread switches every
        # microsecond would expose any shared write between them
        config, train, val = pooled_config_and_batches()
        p0 = initialize_params(96, 96, 64, 32, seed=64)
        workers(1)
        alone = train_epoch(train, p0, config), validation_loss(p0, val)
        workers(5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            (params, metrics), loss = train_epoch(train, p0, config), validation_loss(p0, val)
        finally:
            sys.setswitchinterval(interval)
        assert_same_bytes(params, alone[0][0])
        assert (metrics, loss) == (alone[0][1], alone[1])

    def test_at_most_workers_run_at_once_and_wide_windows_run_alone(
        self, monkeypatch, workers, calls_beside
    ):
        batches = make_batches(sigma=1.0)  # groups, and so widths, vary by batch
        p0 = initialize_params(48, 8, 16, 8, seed=63)
        cfg = RunConfig(k=3, epsilon=24, gs=1, lr=0.02, seed=63)
        widths = [len(plan_batch(b, cfg, 0, i).retained) for i, b in enumerate(batches)]
        middle = sorted(widths)[len(widths) // 2]
        assert min(widths) < middle < max(widths)
        # windows up to the middle width fit, one per chunk at that width
        monkeypatch.setattr(model, "_CHUNK_BUDGET", model._window_values(middle, p0))
        workers(3)
        train_epoch(batches, p0, cfg)
        validation_loss(p0, batches[:2])  # all 16 variates, over the budget
        pooled = [c for c in calls_beside if model._window_values(c[0], p0) <= model._CHUNK_BUDGET]
        wide = [c for c in calls_beside if c not in pooled]
        assert {n for n, _, _ in wide} >= {max(widths), 16}
        assert all(in_caller and beside == 1 for _, in_caller, beside in wide)
        assert max(beside for _, _, beside in pooled) == 3
        assert not all(in_caller for _, in_caller, _ in pooled)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_results_come_in_order_with_at_most_workers_ahead(self, workers, n):
        workers(n)
        started = []

        def square(i):
            started.append(i)
            time.sleep(0.001 * (i % 3))  # later items may finish first
            return i * i

        for read, value in enumerate(model._ordered_map(square, range(12), True)):
            assert value == read * read
            # the item being read and at most n submitted after it
            assert len(started) <= read + 1 + n
        assert sorted(started) == list(range(12))

    def test_the_earliest_error_is_raised_once_the_running_items_end(self, workers):
        workers(3)
        started, finished = [], []
        # item 4 fails first and item 5 still runs when item 3 fails
        pause = {3: 0.02, 5: 0.06}

        def item(i):
            started.append(i)
            try:
                time.sleep(pause.get(i, 0.001))
                if i in (3, 4):
                    raise ValueError(i)
                return i
            finally:
                finished.append(i)

        read = []
        with pytest.raises(ValueError, match="^3$"):
            for value in model._ordered_map(item, range(20), True):
                read.append(value)
        assert read == [0, 1, 2]
        assert max(started) <= 3 + 3  # nothing submitted past the failure's window
        assert sorted(finished) == sorted(started)  # none still runs

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_makes_its_own_pool(self, workers):
        workers(2)
        assert list(model._ordered_map(abs, [-1, -2, -3], True)) == [1, 2, 3]
        with warnings.catch_warnings():
            # forking a process that has threads warns on Python 3.12+
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            ok = False
            try:
                signal.alarm(10)  # a child stuck on the parent's pool dies
                ok = list(model._ordered_map(abs, [-1, -2, -3], True)) == [1, 2, 3]
            finally:
                os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    @pytest.mark.parametrize("n", [1, 2])
    def test_a_non_finite_window_mid_batch_raises_as_the_serial_loop(self, workers, n):
        config, train, val = pooled_config_and_batches(vardrop_on=False)
        p0 = initialize_params(96, 96, 64, 32, seed=61)
        poisoned = []
        for batch in (train[0], val[0]):
            data = np.array(batch.data)
            data[batch.size // 2] *= 1e200
            poisoned.append(WindowBatch(data, batch.horizon))
        workers(n)
        with pytest.raises(NumericError, match="^non-finite attention scores$"):
            train_epoch(poisoned[:1], p0, config)
        with pytest.raises(NumericError, match="^non-finite attention scores$"):
            validation_loss(p0, poisoned[1:])


def golden_split_batches():
    """The golden CLI config's training and validation batches."""
    config = RunConfig(
        synth_n=16, synth_g=4, synth_length=2000, seed=7, T=96, H=16, B=8, stride=16
    )
    return split_batches(load_table(config), config)


def golden_params(**fill):
    """The golden config's initial parameters with named arrays filled."""
    p = initialize_params(96, 16, 16, 8, seed=7)
    return replace(p, **{name: np.full_like(getattr(p, name), v) for name, v in fill.items()})


def _overflowing_lookbacks():
    return np.random.default_rng(50).normal(size=(2, 6, 96)) * 10


def _overflowing_validation():
    _, val = golden_split_batches()
    p = initialize_params(96, 16, 16, 8, seed=7)
    return validation_loss(replace(p, w_head=p.w_head * 1e200), val)


def _overflowing_epoch():
    train, _ = golden_split_batches()
    return train_epoch(train, golden_params(), RunConfig(lr=1e60, seed=7))


def _overflowing_pooled_epoch():
    config, train, _ = pooled_config_and_batches(lr=1e200)
    return train_epoch(train, initialize_params(96, 96, 64, 32, seed=61), config)


def _overflowing_backward():
    train, _ = golden_split_batches()
    p = golden_params(w_head=1e200)
    batch = train[0]
    return backward(forward(batch.data, batch.horizon, p, range(16)), p).w_embed


def _overflowing_step():
    p = golden_params()
    grads = ModelParams(**{f.name: np.full_like(getattr(p, f.name), 1e300) for f in fields(p)})
    return sgd_step(p, grads, 1e10).w_embed


# every public numeric function of vardrop.model, driven into overflow: the
# message its NumericError carries, or None where it returns non-finite values
OVERFLOWS = {
    "embed": (
        lambda: embed(np.full((1, 3, 96), 1e308), golden_params(w_embed=1.0)),
        None,
    ),
    "attention": (
        lambda: attention(
            np.random.default_rng(50).normal(size=(2, 5, 16)) * 10,
            golden_params(w_value=1e308),
        ),
        "non-finite attention context",
    ),
    "forward": (
        lambda: forward(
            _overflowing_lookbacks(), np.zeros((2, 6, 16)), golden_params(w_value=1e308),
            range(6),
        ),
        "non-finite attention context",
    ),
    "predict_full": (
        lambda: predict_full(_overflowing_lookbacks()[0], golden_params(w_value=1e308)),
        "non-finite attention context",
    ),
    "predict_full_head": (
        lambda: predict_full(_overflowing_lookbacks()[0], golden_params(w_head=1e308)),
        "non-finite predictions",
    ),
    "backward": (_overflowing_backward, None),
    "sgd_step": (_overflowing_step, None),
    "train_epoch": (_overflowing_epoch, "non-finite attention scores"),
    "train_epoch_pooled": (_overflowing_pooled_epoch, "non-finite attention scores"),
    "validation_loss": (_overflowing_validation, "non-finite validation loss"),
}


def assert_never_warns(call, message):
    before = np.geterr()
    if message is None:
        assert not np.all(np.isfinite(call()))
    else:
        with pytest.raises(NumericError, match=f"^{message}$"):
            call()
    assert np.geterr() == before


@pytest.mark.parametrize("call, message", OVERFLOWS.values(), ids=list(OVERFLOWS))
def test_overflow_never_warns(call, message):
    # warnings are errors here, so an overflow warning would escape as a
    # RuntimeWarning before any finiteness check could raise
    assert_never_warns(call, message)


@pytest.mark.parametrize("name", ["validation_loss", "train_epoch_pooled"])
def test_overflow_never_warns_in_a_pool_thread(name, workers):
    # a pool thread starts without its caller's np.errstate, so each
    # function the pool runs must set its own
    workers(2)
    assert_never_warns(*OVERFLOWS[name])
