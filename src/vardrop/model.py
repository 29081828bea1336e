"""Minimal variate-token forecaster with exact FLOP accounting.

Each variate's whole lookback window is one token. The model embeds the
retained tokens, mixes them with single-head scaled dot-product attention
across variates, and projects each mixed token to its forecast horizon.
Loss is MSE on the retained variates only: dropped variates have no tokens
in the batch and contribute nothing, gradients included.

Every stage works on a stack of windows, ``c x N' x T``, cut from a batch's
``B x N x T`` array. A batch shares its retained set, so ``train_epoch`` runs
it in chunks of ``c`` windows, with ``c`` chosen from ``N'`` and the parameter
shapes so that one chunk fits a timed budget. Forward, and backward's
``N' x N'`` work, run per window as one window at a time would: stacked
``np.matmul`` runs one gemm per window, and each window's loss is the mean
of its own slice. ``backward`` returns the gradient of the chunk's summed
loss, each weight gradient one gemm over the chunk's ``c N'`` token rows,
and the batch gradient adds one array per chunk. So the chunk size can move
the last bits of the step; a chunk of one window gives the window loop's
bits. The chunk size is a pure function of ``N'`` and the parameter shapes,
so a run still replays byte for byte.

No ``N' x N'`` array is ever normalised: as in FlashAttention (Dao et al.,
2022), attention divides the ``N' x d_k`` context by the exponentials' row
sums, and its backward builds the score gradient in the exponentials' place,
a block of rows at a time, so a training step holds one square array per
window. ``_attend`` and ``_attend_backward`` are that core, over any
queries, keys and values; only they decide which scores are shifted, and
the score guard is stated once, at ``_SCORE_LIMIT``.

All math is explicit numpy so gradients can be checked against finite
differences; there is no framework underneath. One attention block, no
layer norm, no feed-forward sublayer, plain gradient descent: enough to
exercise the claims under test (attention cost, reduction accounting,
gradient flow) without optimizer state complicating determinism.

A ``RunConfig`` holds every key of one run; ``train_epoch`` reads its first
six. ``load_table`` and ``split_batches`` build its batches, and ``run``
initializes, trains ``epochs`` epochs through ``train_epoch`` and scores the
validation split: the package's one run loop, which the CLI's ``train``
calls once and a grid over k and gs calls once per cell.

Numpy never warns here: each public function that computes floats runs
whole under one ``np.errstate(over="ignore", invalid="ignore")``. Failure
is the explicit finiteness checks' ``NumericError`` instead, so a diverging
step surfaces at the next forward's check, not as a warning mid-update.
"""

from __future__ import annotations

import math
import numbers
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, fields

import numpy as np

from .dataset import (
    SeriesTable,
    SplitSpec,
    SynthDetail,
    WindowBatch,
    _check_delimiter,
    batch_windows,
    chronological_split,
    load_csv,
    sliding_windows,
    synth_redundant_detail,
)
from .errors import NumericError, ParameterError, require
from .reduction import (
    GroupTable,
    ReductionPlan,
    derive_seed,
    group_by_hash,
    stratified_sample,
)
from .spectral import kdfh

# Float64 values one training chunk may hold (4 MiB; _chunk_size counts every
# array a chunk's forward and backward make, not only those alive at once).
# One step of B=32 windows at T=H=96, d=64, d_k=32, median of 40 runs on one
# BLAS thread (2-core Xeon, 2 MiB L2 per core, numpy 2.4.6 / OpenBLAS), after
# a 16 MB table was built and freed, as a run's set-up does:
#   N'=8:   one window at a time 7.8 ms, chunks of 8 2.1 ms, of 16-32 1.7-1.8 ms
#   N'=16:  9.5 ms, chunks of 4 4.4 ms, of 8-32 3.4-3.5 ms
#   N'=32:  12.4 ms, chunks of 4 7.3 ms, of 8-16 7.0-7.1 ms, of 32 7.5 ms
#   N'=64:  17.9 ms, chunks of 2-4 14.4-15.1 ms, of 8 14.1 ms, of 16 14.4 ms
#   N'=128: 32.1 ms, chunks of 2-8 30.7-31.1 ms
#   N'=321: 111.7 ms, chunks of 2 113.9 ms
# _chunk_size gives 72, 35, 17, 8, 4 and 1 windows at these widths, so up to
# N'=16 the whole batch is one chunk; each is within 5 % of its row's
# fastest. Five epochs of the benchmark's redundant_reduced workload (N'=16)
# ran fastest with the whole batch in one chunk too.
_CHUNK_BUDGET = 2**19

# Float64 values of one block of rows of g V^T in backward (2 MiB). It is
# fixed, not the chunk budget, so the rows per block depend on N' alone and
# the chunk size never changes a window's dS. Every N' <= 512 is one block,
# one gemm per window; more blocks can move the last bits of g V^T.
_BACKWARD_BLOCK = 2**18

# Softmax is the same for any shift of a row, so a window may exponentiate its
# raw scores, unchecked and unshifted, when they are provably small; only the
# rounding differs from the textbook softmax. By Cauchy-Schwarz each score s =
# q.k / sqrt(d_k) obeys |s| <= b, the largest scaled query norm times the
# largest key norm (up to rounding, which moves b by a few ulp). Norms are
# compared squared; a square that overflows is inf, and inf or NaN fails the
# guard. With b <= _SCORE_LIMIT = 64, every entry of E lies within e^(+-64) =
# 2^(+-92.3), far inside float64's normal range, and a row sum of N' < 2^931
# of them is finite. An unshifted row of E is e^m times the shifted one, m the
# row max, |m| <= 64, so forward's E V can overflow at most e^64 = 2^92.3
# sooner than with the shift, and the context check catches it. A shifted row
# sum lies in [1, N']; backward scales each window's row sums by the power of
# two 2^p that lifts the smallest into [1, 2), so g = dC / rowsum(E) and g V^T
# are at most N' times the shifted path's and overflow within log2(N') + 1
# powers of two of it. Scaling dV, dQ and dK back by 2^p is exact (short of
# subnormals), and a step built from non-finite gradients fails the next
# forward's checks.
_SCORE_LIMIT = 64.0

__all__ = [
    "ModelParams",
    "AttentionFragment",
    "ForwardTrace",
    "FlopLedger",
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
    "RunConfig",
    "RunResult",
    "load_table",
    "split_batches",
    "run",
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
    exponentials ``E`` (shifted as ``_attend``'s guard decides), their row
    sums and the context."""

    queries: np.ndarray
    keys: np.ndarray
    values: np.ndarray
    exp_scores: np.ndarray
    row_sums: np.ndarray
    context: np.ndarray


@dataclass(frozen=True)
class ForwardTrace(AttentionFragment):
    """One forward pass over a stack of windows: gathered rows and targets,
    attention, the head's mixed tokens ``context @ w_out``, predictions, and
    each window's loss (``losses[i]``). ``backward`` consumes ``exp_scores``:
    afterwards it holds the score gradient (see ``backward``). Every other
    array stays as forward made it."""

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


def _attend(
    queries: np.ndarray, keys: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Attend each window's ``n_q`` queries over its ``n_k`` keys and values;
    returns ``E``, its row sums and the context.

    ``E`` is the scores ``(Q / sqrt(d_k)) K^T`` exponentiated in place, one
    ``n_q x n_k`` array per window. A window whose largest scaled query and
    key norms bound its scores within ``_SCORE_LIMIT`` exponentiates them as
    they are. If any window is not that small, the stack's scores are checked
    for finiteness and every window is shifted: by its row max, so exp cannot
    overflow, or by 0.0 if small, which keeps its bits. The context, ``E @ V``
    divided by ``E``'s row sums, is always checked for finiteness.
    """
    scaled = queries / math.sqrt(queries.shape[-1])
    exp_scores = scaled @ _mt(keys)
    # each window's largest squared row norm of Q / sqrt(d_k) and of K
    query_sq, key_sq = (np.einsum("cnd,cnd->cn", x, x).max(axis=1) for x in (scaled, keys))
    # NaN or inf fails the comparison, so such a window is not small
    small = query_sq * key_sq <= _SCORE_LIMIT**2
    if not small.all():
        # a small window's scores are finite by its bound, and its shift of
        # 0.0 keeps every bit
        if not np.all(np.isfinite(exp_scores)):
            raise NumericError("non-finite attention scores")
        shift = exp_scores.max(axis=-1, keepdims=True)
        shift[small] = 0.0
        exp_scores -= shift
    np.exp(exp_scores, out=exp_scores)
    row_sums = exp_scores.sum(axis=-1, keepdims=True)
    context = exp_scores @ values
    context /= row_sums
    if not np.all(np.isfinite(context)):
        raise NumericError("non-finite attention context")
    return exp_scores, row_sums, context


@np.errstate(over="ignore", invalid="ignore")
def attention(tokens: np.ndarray, params: ModelParams) -> AttentionFragment:
    """Scaled dot-product attention within each window of ``c x N' x d`` tokens:
    ``_attend`` over the tokens' linear maps Q, K and V."""
    tokens = np.asarray(tokens, dtype=np.float64)
    if tokens.ndim != 3 or tokens.shape[1] == 0:
        raise ParameterError(
            f"expected c x N' x d tokens with N' >= 1, got shape {tokens.shape}"
        )
    if tokens.shape[2] != params.embed_dim:
        raise ParameterError(
            f"token width {tokens.shape[2]} does not match embed dim {params.embed_dim}"
        )
    queries = tokens @ params.w_query
    keys = tokens @ params.w_key
    values = tokens @ params.w_value
    exp_scores, row_sums, context = _attend(queries, keys, values)
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


def _rows(a: np.ndarray) -> np.ndarray:
    """A ``c x N' x m`` stack as one ``c N' x m`` matrix: a view of every
    stack ``backward`` reads but the gathered lookback rows, which
    ``forward``'s index lays out variate-major, so those are copied."""
    return a.reshape(-1, a.shape[-1])


def _attend_backward(
    fragment: AttentionFragment, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_attend``'s query, key and value gradients for ``g = dC``, the
    gradient of the context, which is divided in place.

    With ``g = dC / rowsum(E)``, ``dV = E^T g`` and ``dS = E * (g V^T -
    rowsum(g * C))`` (as ``rowsum(dW * W) = rowsum(dC * C)``), per window,
    with the ``1/sqrt(d_k)`` score scale folded into ``dQ`` and ``dK``. Each
    window's row sums are first scaled by the power of two ``2^p`` that lifts
    the smallest into ``[1, 2)``, and ``dV``, ``dQ`` and ``dK`` are scaled
    back by it, which is exact (see ``_SCORE_LIMIT``). ``dS`` is built in
    ``fragment.exp_scores``' place, ``_BACKWARD_BLOCK`` values of ``g V^T``
    at a time, so afterwards that array holds each window's ``dS / 2^p``.
    """
    exponent = np.frexp(fragment.row_sums.min(axis=1, keepdims=True))[1]
    up = np.ldexp(1.0, np.maximum(0, 1 - exponent))
    g /= fragment.row_sums * up
    d_values = _mt(fragment.exp_scores) @ g
    d_values *= up
    inner = (g * fragment.context).sum(axis=-1, keepdims=True)
    d_scores = fragment.exp_scores
    step = max(1, _BACKWARD_BLOCK // d_scores.shape[-1])
    for start in range(0, d_scores.shape[1], step):
        block = slice(start, start + step)
        part = g[:, block] @ _mt(fragment.values)
        part -= inner[:, block]
        d_scores[:, block] *= part
        del part  # before the next block's product is made

    scale = 1.0 / math.sqrt(fragment.queries.shape[-1]) * up
    d_queries = d_scores @ fragment.keys * scale
    d_keys = _mt(d_scores) @ fragment.queries * scale
    return d_queries, d_keys, d_values


@np.errstate(over="ignore", invalid="ignore")
def backward(trace: ForwardTrace, params: ModelParams) -> ModelParams:
    """Analytic gradients of the stack's summed loss ``sum(trace.losses)``.

    Each returned array has its parameter's shape. The token-wise weight
    gradients are one gemm each over the stack's ``c N'`` token rows and the
    bias gradients one sum over them, so the windows' contributions are
    summed inside the BLAS kernel: a stack of ``c`` windows can differ from
    adding ``c`` one-window gradients in the last bits. ``_attend_backward``
    gives the query, key and value gradients.

    ``backward`` consumes ``trace.exp_scores``, the one ``N' x N'`` array per
    window, leaving each window's ``dS / 2^p`` in it (see ``_attend_backward``)
    and every other trace array untouched. A trace goes through ``backward`` once.
    """
    d_pred = 2.0 * (trace.predictions - trace.target) / trace.predictions[0].size

    d_w_head = _rows(trace.mixed).T @ _rows(d_pred)
    d_b_head = d_pred.sum(axis=(0, 1))
    d_mixed = d_pred @ params.w_head.T

    d_w_out = _rows(trace.context).T @ _rows(d_mixed)
    g = d_mixed @ params.w_out.T  # dC, which _attend_backward divides in place
    del d_pred, d_mixed  # the N' x N' pass runs beside as few arrays as it can
    d_queries, d_keys, d_values = _attend_backward(trace, g)

    tokens_t = _rows(trace.tokens).T
    d_w_query = tokens_t @ _rows(d_queries)
    d_w_key = tokens_t @ _rows(d_keys)
    d_w_value = tokens_t @ _rows(d_values)

    d_tokens = (
        d_queries @ params.w_query.T
        + d_keys @ params.w_key.T
        + d_values @ params.w_value.T
    )
    d_w_embed = _rows(trace.rows).T @ _rows(d_tokens)
    d_b_embed = d_tokens.sum(axis=(0, 1))

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

    ``_attend`` divides context entries, not scores: 2 FLOPs per score
    (exp, sum) in a chunk its guard leaves unshifted, 3 (subtract, exp, sum)
    in one it shifts, plus 1 per context entry and the guard's two
    ``O(N' d_k)`` norm passes. The ledger keeps the textbook softmax count.
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


# the checkpoint stores the seed as one uint64
_MAX_SEED = 2**64 - 1

_KINDS = {"int": numbers.Integral, "float": numbers.Real, "bool": bool, "str": str}


def _of_kind(value, kind: str) -> bool:
    """Whether ``value`` has a field's annotated kind; a bool is only a bool."""
    return isinstance(value, _KINDS[kind]) and (kind == "bool") == isinstance(value, bool)


@dataclass(frozen=True)
class RunConfig:
    """Fully defaulted run configuration that checks itself when built.

    Each field is one config key; ``train_epoch`` reads the first six, ``k``
    to ``vardrop_on``. ``__post_init__`` checks every field against its
    annotation before any range check: an ``int`` takes any integral value,
    a ``float`` any real one, and neither takes a bool. So a config built
    from text, in code or by ``dataclasses.replace`` passes the same checks.
    A field's annotation, a string under postponed evaluation, also names
    the kind the CLI parses the key as; its default is the built-in default.
    """

    k: int = 3
    epsilon: int = 25
    gs: int = 10
    lr: float = 0.01
    seed: int = 0
    vardrop_on: bool = True
    data: str = ""
    delimiter: str = ","
    synth_n: int = 64
    synth_g: int = 8
    synth_sigma: float = 0.05
    synth_length: int = 4096
    T: int = 96
    H: int = 96
    B: int = 32
    stride: int = 1
    d: int = 64
    d_k: int = 32
    epochs: int = 10
    train_frac: float = 0.7
    val_frac: float = 0.1
    test_frac: float = 0.2

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
        require("seed", self.seed <= _MAX_SEED, f"[0, {_MAX_SEED}]", self.seed)
        _check_delimiter(self.delimiter)
        require("T", self.T >= 2, "[2, inf)", self.T)
        require("H", self.H >= 0, "[0, inf)", self.H)
        require("B", self.B >= 1, "[1, inf)", self.B)
        require("stride", self.stride >= 1, "[1, inf)", self.stride)
        require(
            "epsilon",
            self.epsilon <= self.T // 2,
            f"[1, {self.T // 2}] (floor(T/2) for T={self.T})",
            self.epsilon,
        )
        require("d", self.d >= 1, "[1, inf)", self.d)
        require("d_k", self.d_k >= 1, "[1, inf)", self.d_k)
        require("epochs", self.epochs >= 1, "[1, inf)", self.epochs)
        require("synth_n", self.synth_n >= 1, "[1, inf)", self.synth_n)
        require(
            "synth_g",
            1 <= self.synth_g <= self.synth_n,
            f"[1, {self.synth_n}] (at most synth_n)",
            self.synth_g,
        )
        sigma = self.synth_sigma
        require("synth_sigma", 0 <= sigma < np.inf, "[0, inf)", sigma)
        require("synth_length", self.synth_length >= 1, "[1, inf)", self.synth_length)
        _split_spec(self)  # checks the split fractions

    def synth_detail(self) -> SynthDetail:
        """The synthetic table the ``synth_*`` keys and ``seed`` draw, with
        its labels and prototypes."""
        # the synthetic period is T, so a too-short T is reported as T
        require("T", self.T >= 10, "[10, inf) for synthetic data", self.T)
        return synth_redundant_detail(
            self.synth_n,
            self.synth_g,
            self.synth_length,
            self.synth_sigma,
            self.seed,
            period=self.T,
        )


# perfbench/pipeline.py, the one reader of this name, builds its training
# config under it; delete the name once the benchmark drives ``run``.
TrainSettings = RunConfig


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


def hash_groups(batch: WindowBatch, config: RunConfig) -> GroupTable:
    """The batch's hash groups under ``config``'s k and epsilon.

    The one composition of ``kdfh`` and ``group_by_hash``. A batch never
    changes, so its memo keeps one table per ``(k, epsilon)``, for later
    epochs and later runs at the same setting.
    """
    key = ("hash_groups", config.k, config.epsilon)
    if key not in batch.memo:
        batch.memo[key] = group_by_hash(kdfh(batch, config.k, config.epsilon))
    return batch.memo[key]


def plan_batch(
    batch: WindowBatch, config: RunConfig, epoch: int, batch_index: int
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

    A window in a chunk holds, per token, one ``N'``-wide attention row
    (its row of ``E``, which ``backward`` turns into ``dS``; the block of
    ``g V^T`` made beside it is not counted) plus the lookback, horizon,
    embedding and attention-width arrays that forward and backward keep.
    ``backward`` returns one gradient per parameter for the whole chunk, so
    the gradients cost no room per window. As many windows as fit
    ``_CHUNK_BUDGET`` values go in one chunk, and never fewer than one. The
    size depends on ``N'`` and the parameter shapes alone, so a run replays
    byte for byte.
    """
    per_token = (
        n_tokens
        + params.lookback
        + 3 * params.horizon
        + 4 * params.embed_dim
        + 8 * params.attn_dim
    )
    return max(1, _CHUNK_BUDGET // (n_tokens * per_token))


@np.errstate(over="ignore", invalid="ignore")
def train_epoch(
    batches: list[WindowBatch],
    params: ModelParams,
    config: RunConfig,
    epoch: int = 0,
) -> tuple[ModelParams, list[BatchMetrics]]:
    """One pass over the batches, each on the variates its plan keeps.

    Per batch: ``plan_batch`` gives the retained set and delta for either
    arm, then the batch runs through ``forward`` and ``backward`` in chunks of
    windows sized by ``_chunk_size``, and one descent step is taken on the
    kept tokens with the gradients averaged over the batch. Per chunk, each
    parameter's running sum, from 0 as ``sum()`` starts, adds ``backward``'s
    one summed gradient in place, and the losses are added one window at a
    time in batch order, as the window loop adds them. At chunks of one
    window the step has the window loop's bits; larger chunks sum inside a
    gemm and can move its last bits. Reported FLOPs are the forward and
    attention cost of the batch at the kept token count.
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
                total += getattr(grads, name)
            # the next chunk's forward must not run beside this chunk's E
            del trace, grads
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


def _split_spec(config: RunConfig) -> SplitSpec:
    return SplitSpec(config.train_frac, config.val_frac, config.test_frac)


def load_table(config: RunConfig) -> SeriesTable:
    """The run's table: the CSV at ``data``, or the synthetic one without it."""
    if config.data:
        return load_csv(config.data, delimiter=config.delimiter)
    return config.synth_detail().table


def split_batches(
    table: SeriesTable, config: RunConfig
) -> tuple[list[WindowBatch], list[WindowBatch]]:
    """The training and validation splits' batches of ``T + H`` windows.

    Each split must hold at least one window; the error names the short one.
    """
    require("H", config.H >= 1, "[1, inf) for training", config.H)
    train, val, _ = chronological_split(table, _split_spec(config))
    span = config.T + config.H
    for name, split in (("training", train), ("validation", val)):
        if split.length < span:
            raise ParameterError(
                f"T: {name} split of length {split.length} is shorter than T+H={span}"
            )
    return tuple(
        batch_windows(sliding_windows(split, config.T, config.H, config.stride), config.B)
        for split in (train, val)
    )


@dataclass(frozen=True)
class RunResult:
    """One run's final parameters, every batch's metrics in order, and its
    dense validation loss."""

    params: ModelParams
    metrics: list[BatchMetrics]
    val_loss: float


def run(
    config: RunConfig,
    train_batches: list[WindowBatch],
    val_batches: list[WindowBatch],
    on_epoch: Callable[[int, list[BatchMetrics], float], None] | None = None,
) -> RunResult:
    """Initialize from ``seed``, train ``epochs`` epochs, score on validation.

    The package's one run loop: the CLI's ``train`` runs it once. A grid
    over k and gs runs it once per cell on batches built once, so each
    batch's hash memo serves every cell at the same k.
    ``on_epoch(epoch, metrics, seconds)`` sees each epoch's batch metrics
    and wall time as it ends.
    """
    params = initialize_params(config.T, config.H, config.d, config.d_k, config.seed)
    all_metrics = []
    for epoch in range(config.epochs):
        started = time.perf_counter()
        params, metrics = train_epoch(train_batches, params, config, epoch)
        if on_epoch is not None:
            on_epoch(epoch, metrics, time.perf_counter() - started)
        all_metrics.extend(metrics)
    return RunResult(params, all_metrics, validation_loss(params, val_batches))
