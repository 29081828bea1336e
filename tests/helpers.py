"""Shared test oracles.

Every oracle here is deliberately naive: direct definition evaluation,
full sorts, triple loops, central differences, one window at a time.
None of them share arithmetic with the library under test.
"""

import cmath
import math
from dataclasses import replace

import numpy as np

from vardrop.model import (
    _SCORE_LIMIT,
    BatchMetrics,
    ModelParams,
    count_flops,
    forward,
    plan_batch,
)


def dft_amps_loop(signal):
    """O(T^2) DFT magnitudes for bins 1..floor(T/2), pure Python loops."""
    values = [float(v) for v in signal]
    length = len(values)
    amps = []
    for freq in range(1, length // 2 + 1):
        acc = 0j
        for t, value in enumerate(values):
            acc += value * cmath.exp(-2j * math.pi * freq * t / length)
        amps.append(abs(acc))
    return np.array(amps)


def dft_amps_matrix(signal):
    """O(T^2) DFT magnitudes via an explicit exponential matrix (no FFT)."""
    signal = np.asarray(signal, dtype=float)
    length = signal.shape[0]
    freqs = np.arange(1, length // 2 + 1)
    grid = np.exp(-2j * np.pi * np.outer(freqs, np.arange(length)) / length)
    return np.abs(grid @ signal)


def topk_bins_sorted(amps, k):
    """Top-k bins by full sort: descending amplitude, ties to the lower bin."""
    order = sorted(range(len(amps)), key=lambda i: (-amps[i], i))
    return tuple(i + 1 for i in order[:k])


def oracle_hash_keys(batch_tensor, k, epsilon):
    """Recompute hash keys per variate from scratch (loops + full sort)."""
    tensor = np.asarray(batch_tensor, dtype=float)
    n_inst, n_var, _ = tensor.shape
    keys = []
    for v in range(n_var):
        acc = np.zeros(epsilon)
        for j in range(n_inst):
            acc = acc + dft_amps_matrix(tensor[j, v])[:epsilon]
        keys.append(topk_bins_sorted(acc / n_inst, k))
    return keys


def matmul_loops(a, b):
    """Triple-loop matrix multiply."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    rows, inner = a.shape
    inner2, cols = b.shape
    assert inner == inner2
    out = np.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            total = 0.0
            for k in range(inner):
                total += a[i, k] * b[k, j]
            out[i, j] = total
    return out


def sine_mixture(rng, length, n_components, amp_lo=0.5, amp_hi=4.0, min_gap=0.15):
    """Random integer-bin sinusoid sum with pairwise-distinct amplitudes.

    Returns (signal, bins, amps).  Bins stay below the Nyquist bin and the
    amplitude gaps keep the dominance ordering unambiguous.
    """
    max_bin = length // 2 - 1 if length % 2 == 0 else length // 2
    bins = rng.choice(np.arange(1, max_bin + 1), size=n_components, replace=False)
    while True:
        amps = rng.uniform(amp_lo, amp_hi, size=n_components)
        gaps = np.diff(np.sort(amps))
        if gaps.size == 0 or gaps.min() >= min_gap:
            break
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n_components)
    t = np.arange(length)
    signal = np.zeros(length)
    for b, a, p in zip(bins, amps, phases):
        signal += a * np.sin(2.0 * np.pi * b * t / length + p)
    return signal, bins, amps


PARAM_FIELDS = (
    "w_embed", "b_embed", "w_query", "w_key", "w_value",
    "w_out", "w_head", "b_head",
)


def numeric_gradients(data, horizon, params, retained, step=1e-5):
    """Central-difference gradients of the stack's summed forward loss.

    ``data`` and ``horizon`` are ``c x N x T`` and ``c x N x H`` stacks; every
    returned array has its parameter's shape, like ``backward``'s, and
    differentiates ``sum(losses)``.
    """
    out = {}
    for name in PARAM_FIELDS:
        base = getattr(params, name)
        grad = np.zeros(base.shape)
        flat = base.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            bumped = base.copy()
            bumped.ravel()[idx] = orig + step
            bumped_params = replace(params, **{name: bumped})
            hi = math.fsum(forward(data, horizon, bumped_params, retained).losses)
            bumped.ravel()[idx] = orig - step
            lo = math.fsum(forward(data, horizon, bumped_params, retained).losses)
            grad.ravel()[idx] = (hi - lo) / (2.0 * step)
        out[name] = grad
    return out


def scores_are_small(scaled, keys):
    """Whether ``attention`` may exponentiate a window's raw scores, per window
    of ``c x N' x d_k`` stacks or for one ``N' x d_k`` window.

    Scores are small when the largest scaled query norm times the largest key
    norm is at most the score limit, compared squared. NaN or inf anywhere, or
    a square that overflows, makes a window not small.
    """
    query_sq, key_sq = (np.max(np.sum(x * x, axis=-1), axis=-1) for x in (scaled, keys))
    return query_sq * key_sq <= _SCORE_LIMIT**2


def softmax_attention_out_of_place(tokens, params, guard=True):
    """``attention``'s exponentials, row sums and context, each step a fresh array.

    The score, shift, exp, row-sum and context steps in the library's order,
    written out of place, so an in-place implementation must match bit for bit.
    Windows whose scores are small are shifted by 0.0 (which keeps every bit)
    and all others by their row max; without ``guard`` every window is shifted
    by its row max, the fallback path everywhere.
    """
    queries = tokens @ params.w_query
    keys = tokens @ params.w_key
    values = tokens @ params.w_value
    scaled = queries / math.sqrt(params.attn_dim)
    scores = scaled @ np.swapaxes(keys, -1, -2)
    shift = scores.max(axis=-1, keepdims=True)
    if guard:
        shift = np.where(scores_are_small(scaled, keys)[:, None, None], 0.0, shift)
    expo = np.exp(scores - shift)
    row_sums = expo.sum(axis=-1, keepdims=True)
    return expo, row_sums, (expo @ values) / row_sums


def textbook_attention(tokens, params):
    """Softmax attention as textbooks write it: scores ``Q K^T / sqrt(d_k)``,
    weights ``W`` normalised row by row, then ``context = W V``.

    A tolerance oracle: ``attention`` divides ``E V`` by the row sums instead
    of ``E``, so the two agree to rounding, not to the bit.
    """
    queries = tokens @ params.w_query
    keys = tokens @ params.w_key
    values = tokens @ params.w_value
    scores = queries @ np.swapaxes(keys, -1, -2) / math.sqrt(params.attn_dim)
    expo = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights = expo / expo.sum(axis=-1, keepdims=True)
    return weights, weights @ values


def score_gradients_out_of_place(trace, params):
    """``backward``'s score gradient and query and key weight gradients for a
    ``ForwardTrace``, each step a fresh array and ``g V^T`` one gemm per window.

    Each window's row sums are scaled by ``2^p``, ``p = max(0, 1 - e)`` for
    ``e`` the ``frexp`` exponent of its smallest row sum; then
    ``g = dC / (rowsum(E) 2^p)`` and ``dS = E * (g V^T - rowsum(g * C))``,
    which is the score gradient over ``2^p``, as ``backward`` leaves it in
    ``trace.exp_scores``. The query and key gradients are scaled back by
    ``2^p``, and the weight gradients sum the stack's windows as ``backward``
    does: one gemm over all ``c N'`` token rows.
    """
    d_pred = 2.0 * (trace.predictions - trace.target) / trace.predictions[0].size
    d_context = (d_pred @ params.w_head.T) @ params.w_out.T
    smallest = np.min(trace.row_sums, axis=1, keepdims=True)
    up = 2.0 ** np.maximum(0, 1 - np.frexp(smallest)[1])
    g = d_context / (trace.row_sums * up)
    inner = np.sum(g * trace.context, axis=-1, keepdims=True)
    d_scores = trace.exp_scores * (g @ np.swapaxes(trace.values, -1, -2) - inner)
    scale = up / math.sqrt(params.attn_dim)
    d_queries = d_scores @ trace.keys * scale
    d_keys = np.swapaxes(d_scores, -1, -2) @ trace.queries * scale
    tokens_t = trace.tokens.reshape(-1, trace.tokens.shape[-1]).T
    width = d_queries.shape[-1]
    return d_scores, tokens_t @ d_queries.reshape(-1, width), tokens_t @ d_keys.reshape(-1, width)


def window_loss_and_gradients(rows, target, p, textbook=False):
    """One window's MSE and its analytic gradients, on 2-D arrays.

    By default the softmax runs in the library's order, so the bits match
    ``backward``'s: the scores are shifted by their row max only when
    ``scores_are_small`` says they are not small. With ``textbook`` it runs as
    textbooks write it, always shifted, through the normalised weights ``W``:
    ``context = W V``, ``dW = dC V^T``, ``dV = W^T dC`` and
    ``dS = W * (dW - rowsum(dW * W))``, a tolerance oracle.
    """
    tokens = rows @ p.w_embed + p.b_embed
    queries = tokens @ p.w_query
    keys = tokens @ p.w_key
    values = tokens @ p.w_value
    if textbook:
        scores = queries @ keys.T / math.sqrt(p.attn_dim)
    else:
        scaled = queries / math.sqrt(p.attn_dim)
        scores = scaled @ keys.T
    if textbook or not scores_are_small(scaled, keys):
        scores = scores - scores.max(axis=1, keepdims=True)
    expo = np.exp(scores)
    row_sums = expo.sum(axis=1, keepdims=True)
    if textbook:
        weights = expo / row_sums
        context = weights @ values
    else:
        context = (expo @ values) / row_sums
    mixed = context @ p.w_out
    predictions = mixed @ p.w_head + p.b_head
    loss = float(np.mean((predictions - target) ** 2))

    d_pred = 2.0 * (predictions - target) / predictions.size
    d_mixed = d_pred @ p.w_head.T
    d_context = d_mixed @ p.w_out.T
    if textbook:
        d_weights = d_context @ values.T
        d_values = weights.T @ d_context
        inner = np.sum(d_weights * weights, axis=1, keepdims=True)
        d_scores = weights * (d_weights - inner)
    else:
        g = d_context / row_sums
        d_values = expo.T @ g
        d_scores = expo * (g @ values.T - np.sum(g * context, axis=1, keepdims=True))
    scale = 1.0 / math.sqrt(p.attn_dim)
    d_queries = d_scores @ keys * scale
    d_keys = d_scores.T @ queries * scale
    d_tokens = d_queries @ p.w_query.T + d_keys @ p.w_key.T + d_values @ p.w_value.T
    grads = {
        "w_embed": rows.T @ d_tokens,
        "b_embed": d_tokens.sum(axis=0),
        "w_query": tokens.T @ d_queries,
        "w_key": tokens.T @ d_keys,
        "w_value": tokens.T @ d_values,
        "w_out": context.T @ d_mixed,
        "w_head": mixed.T @ d_pred,
        "b_head": d_pred.sum(axis=0),
    }
    return loss, grads


def reference_train_epoch(batches, params, config, epoch=0):
    """``train_epoch`` one window at a time, on 2-D arrays.

    Each window's gradients go into a list, the step uses their
    ``sum() / n`` mean, and the batch loss is the running sum of window
    losses over the batch size. Only the plan comes from the library
    (``plan_batch``, for either arm), so this checks the step's arithmetic.
    """
    metrics = []
    for batch_index, batch in enumerate(batches):
        plan = plan_batch(batch, config, epoch, batch_index)
        retained = list(plan.retained)
        window_grads = []
        loss_sum = 0.0
        for data, horizon in zip(batch.data, batch.horizon):
            loss, grads = window_loss_and_gradients(
                data[retained], horizon[retained], params
            )
            window_grads.append(grads)
            loss_sum += loss
        params = ModelParams(**{
            name: getattr(params, name)
            - config.lr * (sum(g[name] for g in window_grads) / len(window_grads))
            for name in PARAM_FIELDS
        })
        ledger = count_flops(
            len(retained), batch.lookback, params.embed_dim, params.attn_dim,
            batch.horizon_length,
        )
        metrics.append(BatchMetrics(
            epoch=epoch,
            batch_index=batch_index,
            loss=loss_sum / batch.size,
            tokens_used=len(retained),
            delta=plan.delta,
            flops=batch.size * ledger.total,
            attention_flops=batch.size * ledger.attention,
        ))
    return params, metrics


def max_rel_error(analytic, numeric):
    """max |a - n| / max(|a| + |n|, 1e-6) over paired gradient arrays of
    equal shapes; arrays that would only broadcast fail."""
    worst = 0.0
    for name, num in numeric.items():
        ana = analytic[name]
        assert ana.shape == num.shape, f"{name}: shape {ana.shape} against {num.shape}"
        denom = np.maximum(np.abs(ana) + np.abs(num), 1e-6)
        worst = max(worst, float(np.max(np.abs(ana - num) / denom)))
    return worst


def adjusted_rand_index(labels_a, labels_b):
    """ARI from the contingency table, math.comb throughout."""
    labels_a = list(labels_a)
    labels_b = list(labels_b)
    assert len(labels_a) == len(labels_b)
    n = len(labels_a)
    table = {}
    for a, b in zip(labels_a, labels_b):
        table[(a, b)] = table.get((a, b), 0) + 1
    rows = {}
    cols = {}
    for (a, b), cnt in table.items():
        rows[a] = rows.get(a, 0) + cnt
        cols[b] = cols.get(b, 0) + cnt
    sum_cells = sum(math.comb(c, 2) for c in table.values())
    sum_rows = sum(math.comb(c, 2) for c in rows.values())
    sum_cols = sum(math.comb(c, 2) for c in cols.values())
    total = math.comb(n, 2)
    expected = sum_rows * sum_cols / total if total else 0.0
    maximum = 0.5 * (sum_rows + sum_cols)
    if maximum == expected:
        return 1.0
    return (sum_cells - expected) / (maximum - expected)


def dict_grouping(bins):
    """Reference grouping: a dict of row tuples, sorted by tuple key.

    Returns ``(text, members)`` pairs, text being the bins joined by ``-``.
    """
    collected = {}
    for i, row in enumerate(np.asarray(bins).tolist()):
        collected.setdefault(tuple(row), []).append(i)
    return [
        ("-".join(str(b) for b in key), tuple(members))
        for key, members in sorted(collected.items())
    ]
