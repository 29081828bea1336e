"""Shared test oracles.

Every oracle here is deliberately naive: direct definition evaluation,
full sorts, triple loops, central differences, one window at a time.
None of them share arithmetic with the library under test.
"""

import cmath
import math
from dataclasses import replace

import numpy as np

from vardrop.model import BatchMetrics, ModelParams, count_flops, forward, plan_batch


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


def numeric_gradients(windows, params, retained, step=1e-5):
    """Central-difference gradients of each window's forward loss.

    ``windows`` is a stack; every returned array has a leading window axis,
    like ``backward``'s, and ``grad[i]`` differentiates ``losses[i]``.
    """
    out = {}
    for name in PARAM_FIELDS:
        base = getattr(params, name)
        grad = np.zeros((len(windows),) + base.shape)
        flat = base.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            bumped = base.copy()
            bumped.ravel()[idx] = orig + step
            hi = forward(windows, replace(params, **{name: bumped}), retained).losses
            bumped.ravel()[idx] = orig - step
            lo = forward(windows, replace(params, **{name: bumped}), retained).losses
            grad.reshape(len(windows), -1)[:, idx] = (hi - lo) / (2.0 * step)
        out[name] = grad
    return out


def _window_loss_and_gradients(rows, target, p):
    """One window's MSE and its analytic gradients, on 2-D arrays."""
    tokens = rows @ p.w_embed + p.b_embed
    queries = tokens @ p.w_query
    keys = tokens @ p.w_key
    values = tokens @ p.w_value
    scores = queries @ keys.T / math.sqrt(p.attn_dim)
    shifted = scores - scores.max(axis=1, keepdims=True)
    expo = np.exp(shifted)
    weights = expo / expo.sum(axis=1, keepdims=True)
    context = weights @ values
    predictions = (context @ p.w_out) @ p.w_head + p.b_head
    loss = float(np.mean((predictions - target) ** 2))

    d_pred = 2.0 * (predictions - target) / predictions.size
    mixed = context @ p.w_out
    d_mixed = d_pred @ p.w_head.T
    d_context = d_mixed @ p.w_out.T
    d_weights = d_context @ values.T
    d_values = weights.T @ d_context
    inner = np.sum(d_weights * weights, axis=1, keepdims=True)
    d_scores = weights * (d_weights - inner)
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
    losses over the batch size. Only the retained set comes from the
    library (``plan_batch``), so this checks the step's arithmetic.
    """
    metrics = []
    for batch_index, batch in enumerate(batches):
        if config.vardrop_on:
            plan = plan_batch(batch, config, epoch, batch_index)
            retained, delta = list(plan.retained), plan.delta
        else:
            retained, delta = list(range(batch.n_variates)), 0.0
        window_grads = []
        loss_sum = 0.0
        for window in batch.windows:
            loss, grads = _window_loss_and_gradients(
                window.data[retained], window.horizon[retained], params
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
            delta=delta,
            flops=batch.size * ledger.total,
        ))
    return params, metrics


def max_rel_error(analytic, numeric):
    """max |a - n| / max(|a| + |n|, 1e-6) over paired gradient arrays."""
    worst = 0.0
    for name, num in numeric.items():
        ana = analytic[name]
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


def pearson_pair(x, y):
    """Textbook two-pass Pearson correlation of two sequences."""
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    if vx == 0.0 or vy == 0.0:
        return 0.0
    return cov / math.sqrt(vx * vy)
