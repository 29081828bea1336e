"""Minimal variate-token forecaster with exact FLOP accounting.

Each variate's whole lookback window is one token. The model embeds the
retained tokens, mixes them with single-head scaled dot-product attention
across variates, and projects each mixed token to its forecast horizon.
Loss is MSE on the retained variates only: dropped variates have no tokens
in the batch and contribute nothing, gradients included.

Every stage works on a stack of windows, ``c x N' x T``, cut from a batch's
``B x N x T`` array. A batch shares its retained set, so ``train_epoch`` runs
it in chunks of ``c`` windows, with ``c`` chosen from ``N'`` and the parameter
count so that one chunk fits a core's cache. The arithmetic per window is
the same as one window at a time: stacked ``np.matmul`` runs one gemm per
window, each window's loss is the mean of its own slice, and the batch
gradient adds the windows' gradients one by one in batch order. The chunk
size changes the speed, never the bits.

No ``N' x N'`` array is ever normalised: as in FlashAttention (Dao et al.,
2022), attention divides the ``N' x d_k`` context by the exponentials' row
sums, and its backward needs no second square array. Only the rounding
differs from the textbook softmax.

All math is explicit numpy so gradients can be checked against finite
differences; there is no framework underneath. One attention block, no
layer norm, no feed-forward sublayer, plain gradient descent: enough to
exercise the claims under test (attention cost, reduction accounting,
gradient flow) without optimizer state complicating determinism.

Numpy never warns here: each public function that computes floats runs
whole under one ``np.errstate(over="ignore", invalid="ignore")``. Failure
is the explicit finiteness checks' ``NumericError`` instead, so a diverging
step surfaces at the next forward's check, not as a warning mid-update.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .dataset import WindowBatch
from .errors import NumericError, ParameterError, require
from .reduction import (
    GroupTable,
    ReductionPlan,
    derive_seed,
    group_by_hash,
    stratified_sample,
)
from .spectral import kdfh

# Float64 values one training chunk may hold (2 MiB, one core's L2 cache).
# One step of B=32 windows at T=H=96, d=64, d_k=32, minimum of 75 runs on
# one BLAS thread (2-core Xeon, 2 MiB L2 per core, numpy 2.4.6 / OpenBLAS):
#   N'=8:   one window at a time 4.6 ms, chunks of 6-9 3.0-3.2 ms, of 32 3.7 ms
#   N'=16:  5.3 ms, chunks of 4-8 2.7-3.0 ms, of 32 4.5 ms
#   N'=32:  7.1 ms, chunks of 4-8 4.6-5.2 ms, of 32 8.2 ms
#   N'=64:  11.4 ms, chunks of 2-4 9.2-10.6 ms, of 32 16.1 ms
#   N'=128: 21.8 ms, chunks of 2 21.0 ms; N'=321: 77.8 ms, chunks of 2 81.0 ms
# _chunk_size gives 9, 7, 4, 2, 1 and 1 windows at these widths.
_CHUNK_BUDGET = 2**18

__all__ = [
    "ModelParams",
    "AttentionFragment",
    "ForwardTrace",
    "FlopLedger",
    "TrainSettings",
    "BatchMetrics",
    "initialize_params",
    "embed",
    "attention",
    "forward",
    "backward",
    "sgd_step",
    "count_flops",
    "hash_groups",
    "plan_batch",
    "train_epoch",
    "predict_full",
    "validation_loss",
]


@dataclass(frozen=True)
class ModelParams:
    """Learnable arrays, or one gradient per array; shapes set by initialize_params."""

    w_embed: np.ndarray
    b_embed: np.ndarray
    w_query: np.ndarray
    w_key: np.ndarray
    w_value: np.ndarray
    w_out: np.ndarray
    w_head: np.ndarray
    b_head: np.ndarray

    @property
    def lookback(self) -> int:
        return self.w_embed.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.w_embed.shape[1]

    @property
    def attn_dim(self) -> int:
        return self.w_query.shape[1]

    @property
    def horizon(self) -> int:
        return self.w_head.shape[1]


@dataclass(frozen=True)
class AttentionFragment:
    """Attention intermediates for a stack of windows: Q/K/V, the scores'
    shifted exponentials ``E``, their row sums and the context."""

    queries: np.ndarray
    keys: np.ndarray
    values: np.ndarray
    exp_scores: np.ndarray
    row_sums: np.ndarray
    context: np.ndarray

    @property
    def weights(self) -> np.ndarray:
        """The softmax ``E / row_sums``, computed on read."""
        return self.exp_scores / self.row_sums


@dataclass(frozen=True)
class ForwardTrace(AttentionFragment):
    """One forward pass over a stack of windows: gathered rows and targets,
    attention, the head's mixed tokens ``context @ w_out``, predictions, and
    each window's loss (``losses[i]``)."""

    rows: np.ndarray
    target: np.ndarray
    tokens: np.ndarray
    mixed: np.ndarray
    predictions: np.ndarray
    losses: np.ndarray


def initialize_params(
    lookback: int, horizon: int, embed_dim: int, attn_dim: int, seed: int
) -> ModelParams:
    """Seeded uniform init in ``[-1/sqrt(fan_in), +1/sqrt(fan_in)]``, zero biases.

    Shapes: embed ``T x d`` plus bias ``d``; query/key/value ``d x d_k``;
    out ``d_k x d``; head ``d x H`` plus bias ``H``. The draw order is fixed,
    so a seed pins every weight.
    """
    names = ("lookback", "horizon", "embed_dim", "attn_dim")
    for name, v in zip(names, (lookback, horizon, embed_dim, attn_dim)):
        require(name, v >= 1, "[1, inf)", v)
    require("seed", seed >= 0, "[0, inf)", seed)
    rng = np.random.default_rng(seed)

    def draw(rows: int, cols: int) -> np.ndarray:
        bound = 1.0 / math.sqrt(rows)
        return rng.uniform(-bound, bound, size=(rows, cols))

    return ModelParams(
        w_embed=draw(lookback, embed_dim),
        b_embed=np.zeros(embed_dim),
        w_query=draw(embed_dim, attn_dim),
        w_key=draw(embed_dim, attn_dim),
        w_value=draw(embed_dim, attn_dim),
        w_out=draw(attn_dim, embed_dim),
        w_head=draw(embed_dim, horizon),
        b_head=np.zeros(horizon),
    )


def _check_retained(retained: Sequence[int], n: int) -> list[int]:
    idx = [int(i) for i in retained]
    if not idx:
        raise ParameterError("retained index list must not be empty")
    if len(set(idx)) != len(idx):
        raise ParameterError("retained indices must be distinct")
    for i in idx:
        if not 0 <= i < n:
            require("retained", False, f"[0, {n - 1}] (one of {n} variates)", i)
    return idx


def _mt(a: np.ndarray) -> np.ndarray:
    """Transpose each matrix of a stack."""
    return np.swapaxes(a, -1, -2)


@np.errstate(over="ignore", invalid="ignore")
def embed(rows: np.ndarray, params: ModelParams) -> np.ndarray:
    """Embed a ``c x N' x T`` stack of lookback rows into ``c x N' x d`` tokens.

    Row i of window w is ``rows[w, i] @ w_embed + b_embed``. Callers pass
    only the retained rows, so dropped variates never touch the embedding.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 3:
        raise ParameterError(f"expected c x N' x T rows, got shape {rows.shape}")
    if rows.shape[2] != params.lookback:
        raise ParameterError(
            f"window length {rows.shape[2]} does not match embed input {params.lookback}"
        )
    return rows @ params.w_embed + params.b_embed


@np.errstate(over="ignore", invalid="ignore")
def attention(tokens: np.ndarray, params: ModelParams) -> AttentionFragment:
    """Scaled dot-product attention within each window of ``c x N' x d`` tokens.

    Q/K/V are linear maps of the tokens; scores are ``(Q / sqrt(d_k)) K^T``.
    One ``N' x N'`` array per window holds the scores, which are checked,
    shifted by their row max (so exp cannot overflow) and exponentiated in
    place: ``E``. The context divides ``E @ V`` by ``E``'s row sums.
    """
    tokens = np.asarray(tokens, dtype=np.float64)
    if tokens.ndim != 3:
        raise ParameterError(f"expected c x N' x d tokens, got shape {tokens.shape}")
    if tokens.shape[2] != params.embed_dim:
        raise ParameterError(
            f"token width {tokens.shape[2]} does not match embed dim {params.embed_dim}"
        )
    queries = tokens @ params.w_query
    keys = tokens @ params.w_key
    values = tokens @ params.w_value
    exp_scores = (queries / math.sqrt(params.attn_dim)) @ _mt(keys)
    if not np.all(np.isfinite(exp_scores)):
        raise NumericError("non-finite attention scores")
    exp_scores -= exp_scores.max(axis=-1, keepdims=True)
    np.exp(exp_scores, out=exp_scores)
    row_sums = exp_scores.sum(axis=-1, keepdims=True)
    context = exp_scores @ values
    context /= row_sums
    if not np.all(np.isfinite(context)):
        raise NumericError("non-finite attention context")
    return AttentionFragment(
        queries=queries, keys=keys, values=values, exp_scores=exp_scores,
        row_sums=row_sums, context=context,
    )


def _predict(
    rows: np.ndarray, params: ModelParams
) -> tuple[np.ndarray, AttentionFragment, np.ndarray, np.ndarray]:
    """Embed, attend and project a ``c x N' x T`` stack to ``c x N' x H``
    forecasts; the one prediction path. Returns the tokens, the attention,
    the mixed tokens ``context @ w_out`` and the forecasts."""
    tokens = embed(rows, params)
    frag = attention(tokens, params)
    mixed = frag.context @ params.w_out
    predictions = mixed @ params.w_head + params.b_head
    if not np.all(np.isfinite(predictions)):
        raise NumericError("non-finite predictions")
    return tokens, frag, mixed, predictions


@np.errstate(over="ignore", invalid="ignore")
def forward(
    data: np.ndarray, horizon: np.ndarray, params: ModelParams, retained: Sequence[int]
) -> ForwardTrace:
    """Embed retained variates, attend, project to horizons, score each window.

    ``data`` is a ``c x N x T`` stack of lookbacks sharing one retained set
    and ``horizon`` its ``c x N x H`` horizons. Each window's loss is the MSE
    between its predictions and the horizon rows of its retained variates
    only. Only here are the horizons checked against the model's ``H`` (the
    training path's one horizon check) and the retained indices checked and
    gathered; the trace carries the gathered ``c x N' x T`` rows and
    ``c x N' x H`` targets on to ``backward``.
    """
    if data.ndim != 3 or data.shape[0] < 1:
        raise ParameterError(f"expected a c x N x T stack, got shape {data.shape}")
    want = (*data.shape[:2], params.horizon)
    if horizon.shape != want:
        raise ParameterError(f"forward needs horizons of shape {want}, got {horizon.shape}")
    idx = _check_retained(retained, data.shape[1])
    rows, target = data[:, idx], horizon[:, idx]
    tokens, frag, mixed, predictions = _predict(rows, params)
    losses = ((predictions - target) ** 2).mean(axis=(1, 2))
    return ForwardTrace(
        **vars(frag), rows=rows, target=target, tokens=tokens, mixed=mixed,
        predictions=predictions, losses=losses,
    )


@np.errstate(over="ignore", invalid="ignore")
def backward(trace: ForwardTrace, params: ModelParams) -> ModelParams:
    """Analytic gradients of each window's MSE loss, stacked per window.

    Every returned array has a leading window axis: ``grads.w_embed[i]`` is
    the gradient of ``trace.losses[i]``. With ``g = dC / rowsum(E)``, the
    softmax backward is ``dV = E^T g`` and ``dS = E * (g V^T - rowsum(g * C))``
    (as ``rowsum(dW * W) = rowsum(dC * C)``), with the ``1/sqrt(d_k)`` score
    scale folded into the query/key gradients. The one ``N' x N'`` array per
    window holds ``g V^T`` and becomes ``dS`` in place; no trace array is written.
    """
    d_pred = 2.0 * (trace.predictions - trace.target) / trace.predictions[0].size

    d_w_head = _mt(trace.mixed) @ d_pred
    d_b_head = d_pred.sum(axis=1)
    d_mixed = d_pred @ params.w_head.T

    d_w_out = _mt(trace.context) @ d_mixed
    d_context = d_mixed @ params.w_out.T

    g = d_context / trace.row_sums
    d_values = _mt(trace.exp_scores) @ g
    d_scores = g @ _mt(trace.values)
    d_scores -= (g * trace.context).sum(axis=-1, keepdims=True)
    d_scores *= trace.exp_scores

    scale = 1.0 / math.sqrt(params.attn_dim)
    d_queries = d_scores @ trace.keys * scale
    d_keys = _mt(d_scores) @ trace.queries * scale

    d_w_query = _mt(trace.tokens) @ d_queries
    d_w_key = _mt(trace.tokens) @ d_keys
    d_w_value = _mt(trace.tokens) @ d_values

    d_tokens = (
        d_queries @ params.w_query.T
        + d_keys @ params.w_key.T
        + d_values @ params.w_value.T
    )
    d_w_embed = _mt(trace.rows) @ d_tokens
    d_b_embed = d_tokens.sum(axis=1)

    return ModelParams(
        w_embed=d_w_embed,
        b_embed=d_b_embed,
        w_query=d_w_query,
        w_key=d_w_key,
        w_value=d_w_value,
        w_out=d_w_out,
        w_head=d_w_head,
        b_head=d_b_head,
    )


@np.errstate(over="ignore", invalid="ignore")
def sgd_step(params: ModelParams, grads: ModelParams, lr: float) -> ModelParams:
    """Plain gradient descent; returns new params, inputs untouched."""
    require("lr", 0 < lr < math.inf, "(0, inf)", lr)
    return ModelParams(
        **{
            f.name: getattr(params, f.name) - lr * getattr(grads, f.name)
            for f in fields(ModelParams)
        }
    )


@dataclass(frozen=True)
class FlopLedger:
    """Exact forward FLOPs by stage for one window of ``N'`` tokens.

    Conventions, fixed so ratios are exact: a multiply-add counts 2 (an
    ``m x k @ k x n`` matmul is ``2mnk``), a bias add is 1 per element,
    softmax costs exactly 4 per score (subtract, exp, sum, divide), and the
    ``1/sqrt(d_k)`` score scale is not counted. The scores, softmax and
    context stages all scale with the square of the token count.

    ``attention`` divides context entries, not scores (3 FLOPs per score and
    1 per context entry); the ledger keeps the textbook softmax count.
    """

    embed: int
    qkv: int
    scores: int
    softmax: int
    context: int
    head: int

    @property
    def attention(self) -> int:
        return self.scores + self.softmax + self.context

    @property
    def total(self) -> int:
        return self.embed + self.qkv + self.attention + self.head


def count_flops(
    n_tokens: int, lookback: int, embed_dim: int, attn_dim: int, horizon: int
) -> FlopLedger:
    """Closed-form forward FLOP ledger for one window of ``n_tokens`` tokens.

    The head stage covers both output projections: context back to the embed
    width, then embed width to the horizon, plus the horizon bias.
    """
    names = ("n_tokens", "lookback", "embed_dim", "attn_dim", "horizon")
    for name, v in zip(names, (n_tokens, lookback, embed_dim, attn_dim, horizon)):
        require(name, v >= 1, "[1, inf)", v)
    n, t, d, dk, h = n_tokens, lookback, embed_dim, attn_dim, horizon
    return FlopLedger(
        embed=n * (2 * t * d + d),
        qkv=3 * n * 2 * d * dk,
        scores=2 * n * n * dk,
        softmax=4 * n * n,
        context=2 * n * n * dk,
        head=n * (2 * dk * d + 2 * d * h + h),
    )


_KINDS = {"int": numbers.Integral, "float": numbers.Real, "bool": bool, "str": str}


def _of_kind(value, kind: str) -> bool:
    """Whether ``value`` has a field's annotated kind; a bool is only a bool."""
    if kind == "tuple[int, ...]":
        return isinstance(value, tuple) and all(_of_kind(v, "int") for v in value)
    return isinstance(value, _KINDS[kind]) and (kind == "bool") == isinstance(value, bool)


@dataclass(frozen=True)
class TrainSettings:
    """Knobs for one training run; reduction applies only when enabled.

    The CLI's RunConfig extends this class: each field is a config key.
    Every field, a subclass's too, is checked against its annotation before
    any range check: an ``int`` takes any integral value, a ``float`` any
    real one, and neither takes a bool.
    """

    k: int = 3
    epsilon: int = 25
    gs: int = 10
    lr: float = 0.01
    seed: int = 0
    vardrop_on: bool = True

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not _of_kind(value, f.type):
                raise ParameterError(f"{f.name}: expected {f.type}, got {value!r}")
        require("k", self.k >= 1, "[1, inf)", self.k)
        require("epsilon", self.epsilon >= 1, "[1, inf)", self.epsilon)
        require(
            "k", self.k <= self.epsilon, f"[1, {self.epsilon}] (at most epsilon)", self.k
        )
        require("gs", self.gs >= 1, "[1, inf)", self.gs)
        require("lr", 0 < self.lr < math.inf, "(0, inf)", self.lr)
        require("seed", self.seed >= 0, "[0, inf)", self.seed)


@dataclass(frozen=True)
class BatchMetrics:
    """Per-batch training record: loss on kept tokens plus reduction stats.

    ``flops`` and ``attention_flops`` are the batch's forward and attention
    FLOPs from one ``count_flops`` ledger at the kept token count.
    """

    epoch: int
    batch_index: int
    loss: float
    tokens_used: int
    delta: float
    flops: int
    attention_flops: int


def hash_groups(batch: WindowBatch, config: TrainSettings) -> GroupTable:
    """The batch's hash groups under ``config``'s k and epsilon.

    The one composition of ``kdfh`` and ``group_by_hash``. A batch never
    changes, so its memo keeps, per ``epsilon``, every bin ranked (``kdfh``
    at ``k = epsilon``), and per ``k`` the table grouped from its first
    ``k`` columns, for later epochs and sweep cells. Those columns are
    ``kdfh`` at ``k``, bit for bit, as both come from one stable argsort;
    so a sweep over several ``k`` hashes each batch once.
    """
    ranked = ("ranked_bins", config.epsilon)
    if ranked not in batch.memo:
        batch.memo[ranked] = kdfh(batch, config.epsilon, config.epsilon)
    key = ("hash_groups", config.k, config.epsilon)
    if key not in batch.memo:
        batch.memo[key] = group_by_hash(batch.memo[ranked][:, : config.k])
    return batch.memo[key]


def plan_batch(
    batch: WindowBatch, config: TrainSettings, epoch: int, batch_index: int
) -> ReductionPlan:
    """Choose the variates one batch keeps; the one reading of ``vardrop_on``.

    The plan's seed is derived from ``seed:epoch:batch`` in both arms. With
    reduction on, the batch is hashed, grouped and sampled, so every batch of
    every epoch redraws its representatives from the same hash groups. With
    it off, the plan keeps every variate in order at delta 0, with no
    ``per_group`` draws, and nothing is hashed.
    """
    seed = derive_seed(config.seed, f"{epoch}:{batch_index}")
    if not config.vardrop_on:
        return ReductionPlan(tuple(range(batch.n_variates)), {}, 0.0, seed)
    return stratified_sample(hash_groups(batch, config), config.gs, seed)


def _chunk_size(n_tokens: int, params: ModelParams) -> int:
    """Windows per forward/backward call for ``n_tokens`` retained variates.

    A window in a chunk holds one gradient value per parameter, because
    ``backward`` returns them per window, and per token about four
    ``N'``-wide attention rows plus the lookback, horizon, embedding and
    attention-width arrays that forward and backward keep. As many windows
    as fit ``_CHUNK_BUDGET`` values go in one chunk, and never fewer than one.
    """
    n_params = sum(getattr(params, f.name).size for f in fields(ModelParams))
    per_token = (
        4 * n_tokens
        + params.lookback
        + 3 * params.horizon
        + 4 * params.embed_dim
        + 8 * params.attn_dim
    )
    return max(1, _CHUNK_BUDGET // (n_params + n_tokens * per_token))


@np.errstate(over="ignore", invalid="ignore")
def train_epoch(
    batches: list[WindowBatch],
    params: ModelParams,
    config: TrainSettings,
    epoch: int = 0,
) -> tuple[ModelParams, list[BatchMetrics]]:
    """One pass over the batches, each on the variates its plan keeps.

    Per batch: ``plan_batch`` gives the retained set and delta for either
    arm, then the batch runs through ``forward`` and ``backward`` in chunks of
    windows sized by ``_chunk_size``, and one descent step is taken on the
    kept tokens with the gradients averaged over the batch. Per chunk, each
    parameter's running sum adds that parameter's window gradients in place
    one window at a time, in batch order, from 0 as ``sum()`` starts; the
    losses are summed the same way. Sums of different parameters never mix,
    so every chunk size gives the same bits as one window at a time.
    Reported FLOPs are the forward and attention cost of the batch at the
    kept token count.
    """
    if not batches:
        raise ParameterError("training needs at least one batch")
    metrics = []
    for batch_index, batch in enumerate(batches):
        plan = plan_batch(batch, config, epoch, batch_index)
        retained = plan.retained
        chunk = _chunk_size(len(retained), params)
        grad_sums = {f.name: np.zeros(getattr(params, f.name).shape) for f in fields(ModelParams)}
        loss_sum = 0.0
        for start in range(0, batch.size, chunk):
            window = slice(start, start + chunk)
            trace = forward(batch.data[window], batch.horizon[window], params, retained)
            grads = backward(trace, params)
            for loss in trace.losses.tolist():
                loss_sum += loss
            for name, total in grad_sums.items():
                for window_grad in getattr(grads, name):
                    total += window_grad
        mean_grads = ModelParams(
            **{name: total / batch.size for name, total in grad_sums.items()}
        )
        params = sgd_step(params, mean_grads, config.lr)

        ledger = count_flops(
            n_tokens=len(retained),
            lookback=batch.lookback,
            embed_dim=params.embed_dim,
            attn_dim=params.attn_dim,
            horizon=batch.horizon_length,
        )
        metrics.append(
            BatchMetrics(
                epoch=epoch,
                batch_index=batch_index,
                loss=loss_sum / batch.size,
                tokens_used=len(retained),
                delta=plan.delta,
                flops=batch.size * ledger.total,
                attention_flops=batch.size * ledger.attention,
            )
        )
    return params, metrics


@np.errstate(over="ignore", invalid="ignore")
def predict_full(data: np.ndarray, params: ModelParams) -> np.ndarray:
    """Dense ``N x H`` forecast of one ``N x T`` window; no reduction, no horizon.

    The window goes through ``_predict`` as a stack of one, a view of ``data``.
    """
    return _predict(data[None], params)[3][0]


@np.errstate(over="ignore", invalid="ignore")
def validation_loss(params: ModelParams, batches: list[WindowBatch]) -> float:
    """Dense MSE over all variates of all windows (sum of squares / count).

    Every batch's horizon length must be the model's ``H``; this is the
    validation path's one horizon check. Windows are predicted one at a
    time, so only one window's ``N x N`` attention array is alive at once.
    """
    if not batches:
        raise ParameterError("validation needs at least one batch")
    sq_sum = 0.0
    count = 0
    for batch in batches:
        if batch.horizon_length != params.horizon:
            raise ParameterError(
                f"validation batches need horizons of length {params.horizon}, "
                f"got {batch.horizon_length}"
            )
        for data, horizon in zip(batch.data, batch.horizon):
            preds = predict_full(data, params)
            sq_sum += float(np.sum((preds - horizon) ** 2))
            count += preds.size
    if not math.isfinite(sq_sum):
        raise NumericError("non-finite validation loss")
    return sq_sum / count
