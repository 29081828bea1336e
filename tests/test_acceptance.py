"""End-to-end acceptance checks for the whole pipeline.

Each test is one independently stated guarantee, ordered a01..a11. Every
test prints a single PASS/FAIL line (visible with ``pytest -s`` and on
failure) in addition to its pytest verdict, plus the measured quantities
that justify it.
"""

import dataclasses
import os
import time
from pathlib import Path

import numpy as np
import pytest

import vardrop as vd
from vardrop.cli import canonical_json

from helpers import (
    PARAM_FIELDS,
    adjusted_rand_index,
    dft_amps_matrix,
    max_rel_error,
    numeric_gradients,
    sine_mixture,
    topk_bins_sorted,
)


def verdict(tag, ok, detail):
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


def mixture_with_noise(rng, length=96, max_comp=5, sigma=0.01):
    n = int(rng.integers(1, max_comp + 1))
    signal, bins, amps = sine_mixture(rng, length, n)
    return signal + sigma * rng.standard_normal(length), n


def test_a01_hash_oracle_equivalence():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    agree = 0
    trials = 1000
    for i in range(trials):
        signal, _ = mixture_with_noise(rng)
        k = int(rng.integers(1, 6))
        epsilon = (10, 25, 48)[i % 3]
        got = tuple(vd.kdfh(signal[None, None], k, epsilon)[0].tolist())
        # brute O(T^2) DFT matrix evaluation plus a full sort
        amps = dft_amps_matrix(signal)[:epsilon]
        if got == topk_bins_sorted(amps, k):
            agree += 1
    elapsed = time.perf_counter() - started
    verdict(
        "a01 hash-oracle-equivalence",
        agree == trials and elapsed < 10.0,
        f"{agree}/{trials} agree, {elapsed:.2f} s < 10 s",
    )


def test_a02_reconstruction_error_identity():
    rng = np.random.default_rng(102)
    worst = 0.0
    for i in range(200):
        n = int(rng.integers(2, 7))
        signal, _, amps = sine_mixture(rng, 96, n)
        k = n if i % 5 == 0 else int(rng.integers(0, n + 1))
        expected = 0.5 * float(np.sum(np.sort(amps)[: n - k] ** 2))
        mse, predicted = vd.reconstruction_error(signal, k)
        if expected == 0.0:
            ok = mse < 1e-18 and predicted < 1e-18
            rel = 0.0 if ok else 1.0
        else:
            rel = max(abs(mse - expected), abs(predicted - expected)) / expected
        worst = max(worst, rel)
    verdict(
        "a02 reconstruction-error-identity",
        worst <= 1e-9,
        f"worst relative error {worst:.3e} <= 1e-9 over 200 signals",
    )


def test_a03_order_sensitive_fixture():
    t = np.arange(96)

    def mix(amp4, amp12, amp8):
        return (amp4 * np.sin(2 * np.pi * 4 * t / 96)
                + amp12 * np.sin(2 * np.pi * 12 * t / 96)
                + amp8 * np.sin(2 * np.pi * 8 * t / 96))

    tensor = np.stack([mix(3.0, 2.0, 1.0), mix(2.0, 3.0, 1.0)])[None]
    table = vd.group_by_hash(vd.kdfh(tensor, k=3, epsilon=25))
    ok = table.groups == {"4-12-8": (0,), "12-4-8": (1,)}
    verdict(
        "a03 order-sensitive-fixture",
        ok,
        f"hashes {list(table.groups)} in {table.G} groups",
    )


def test_a04_retention_arithmetic():
    rng = np.random.default_rng(104)
    checked = 0
    for _ in range(10_000):
        sizes = rng.integers(1, 41, size=int(rng.integers(1, 13)))
        gs = int(rng.integers(1, 46))
        groups = {}
        cursor = 0
        for g, size in enumerate(sizes):
            groups[str(g + 1)] = tuple(
                range(cursor, cursor + int(size))
            )
            cursor += int(size)
        table = vd.GroupTable(groups=groups)
        plan = vd.stratified_sample(table, gs, seed=int(rng.integers(2**31)))
        total = int(sizes.sum())
        kept = sum(min(int(s), gs) for s in sizes)
        assert all(
            len(plan.per_group[k]) == min(len(members), gs)
            for k, members in table.groups.items()
        )
        assert len(plan.retained) == kept
        assert plan.delta == 1.0 - kept / total
        checked += 1
    verdict(
        "a04 retention-arithmetic",
        checked == 10_000,
        f"{checked} random partitions hold per-group counts and delta exactly",
    )


def test_a05_attention_flop_ratio():
    dense = vd.count_flops(64, lookback=96, embed_dim=32, attn_dim=16, horizon=24)
    failures = []
    for delta in (0.0, 0.25, 0.5, 0.75):
        kept = vd.count_flops(
            int((1 - delta) * 64), lookback=96, embed_dim=32, attn_dim=16, horizon=24
        )
        ratio = kept.attention / dense.attention
        if ratio != (1 - delta) ** 2:
            failures.append((delta, ratio))
    verdict(
        "a05 attention-flop-ratio",
        not failures,
        "ratio equals (1-delta)^2 exactly for delta in {0, 0.25, 0.5, 0.75}"
        if not failures
        else f"mismatches: {failures}",
    )


def test_a06_gradient_check():
    started = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        data = rng.normal(size=(1, 5, 16))
        horizon = rng.normal(size=(1, 5, 4))
        params = vd.initialize_params(16, 4, 8, 4, seed=seed)
        retained = (0, 1, 2, 3, 4)
        trace = vd.forward(data, horizon, params, retained)
        grads = vd.backward(trace, params)
        analytic = {name: getattr(grads, name) for name in PARAM_FIELDS}
        numeric = numeric_gradients(data, horizon, params, retained)
        worst = max(worst, max_rel_error(analytic, numeric))
    elapsed = time.perf_counter() - started
    verdict(
        "a06 gradient-check",
        worst < 1e-4 and elapsed < 5.0,
        f"max relative error {worst:.3e} < 1e-4 over 10 seeds, {elapsed:.2f} s < 5 s",
    )


DESK_SCALE = vd.RunConfig(
    synth_n=64, synth_g=8, synth_length=4096, synth_sigma=0.05, seed=0,
    T=96, H=16, B=32, stride=8, d=32, d_k=16,
    k=3, epsilon=25, gs=2, lr=0.02, epochs=20,
)


def _arm(config, train_b, val_b):
    result = vd.run(config, train_b, val_b)
    mean_delta = float(np.mean([m.delta for m in result.metrics]))
    return result.val_loss, mean_delta, sum(m.attention_flops for m in result.metrics)


def test_a07_desk_scale_parity():
    started = time.perf_counter()
    train_b, val_b = vd.split_batches(vd.load_table(DESK_SCALE), DESK_SCALE)
    dense = dataclasses.replace(DESK_SCALE, vardrop_on=False)
    dense_loss, _, dense_attention = _arm(dense, train_b, val_b)
    red_loss, mean_delta, red_attention = _arm(DESK_SCALE, train_b, val_b)
    elapsed = time.perf_counter() - started
    rel = abs(red_loss - dense_loss) / dense_loss
    flop_ratio = red_attention / dense_attention
    ok = (
        rel <= 0.10
        and mean_delta >= 0.70
        and flop_ratio <= 0.10
        and elapsed < 120.0
    )
    verdict(
        "a07 desk-scale-parity",
        ok,
        f"val MSE {red_loss:.4f} vs dense {dense_loss:.4f} (rel {rel:.3f} <= 0.10), "
        f"mean delta {mean_delta:.3f} >= 0.70, attention FLOPs "
        f"{flop_ratio:.4f}x <= 0.10x, {elapsed:.1f} s < 120 s",
    )


def _group_labels(detail, batch):
    table = vd.group_by_hash(vd.kdfh(batch, k=3, epsilon=25))
    assigned = {}
    for gid, members in enumerate(table.groups.values()):
        for i in members:
            assigned[i] = gid
    return table.G, [assigned[i] for i in range(table.n_variates)]


def test_a08_grouping_recovery():
    detail = vd.synth_redundant_detail(64, 8, 4096, 0.0, seed=0, period=96)
    batch = vd.batch_windows(
        vd.sliding_windows(detail.table, 96, 0, 96), 32
    )[0]
    n_groups, grouped = _group_labels(detail, batch)
    clean_ari = adjusted_rand_index(detail.labels, grouped)

    noisy_aris = []
    for seed in range(10):
        noisy = vd.synth_redundant_detail(64, 8, 4096, 0.05, seed=seed, period=96)
        nb = vd.batch_windows(vd.sliding_windows(noisy.table, 96, 0, 96), 32)[0]
        _, ng = _group_labels(noisy, nb)
        noisy_aris.append(adjusted_rand_index(noisy.labels, ng))
    worst_noisy = min(noisy_aris)
    ok = n_groups == 8 and clean_ari == 1.0 and worst_noisy >= 0.95
    verdict(
        "a08 grouping-recovery",
        ok,
        f"noiseless: {n_groups} groups, ARI {clean_ari:.3f}; "
        f"sigma=0.05: worst ARI {worst_noisy:.3f} >= 0.95 over 10 seeds",
    )


def test_a09_noise_margin_invariance():
    rng = np.random.default_rng(109)
    epsilon, length = 25, 96
    identical = 0
    trials = 0
    attempts = 0
    while trials < 500 and attempts < 5000:
        attempts += 1
        n = int(rng.integers(2, 6))
        bins = rng.choice(np.arange(1, epsilon + 1), size=n, replace=False)
        amps = np.sort(rng.uniform(0.5, 4.0, size=n))[::-1]
        if n > 1 and np.min(-np.diff(amps)) < 0.15:
            continue
        phases = rng.uniform(0, 2 * np.pi, size=n)
        t = np.arange(length)
        clean = np.zeros(length)
        for b, a, p in zip(bins, amps, phases):
            clean += a * np.sin(2 * np.pi * b * t / length + p)
        noise = rng.uniform(0.005, 0.02) * rng.standard_normal(length)
        dominant_floor = amps.min() * length / 2.0
        noise_ceiling = float(
            np.max(vd.batch_mean_spectrum(noise[None, None], epsilon)[0])
        )
        if dominant_floor < 2.0 * noise_ceiling:
            continue  # margin condition violated; trial does not qualify
        trials += 1
        a = vd.kdfh(clean[None, None], n, epsilon)
        b = vd.kdfh((clean + noise)[None, None], n, epsilon)
        if np.array_equal(a, b):
            identical += 1
    verdict(
        "a09 noise-margin-invariance",
        trials == 500 and identical == trials,
        f"{identical}/{trials} hashes identical under the 2x dominance margin",
    )


_PUBLIC_DATASETS = (
    # file stem, k, gs, expected mean delta, expected mean tokens or None
    ("electricity", 3, 10, 0.6333, 117.7),
    ("traffic", 4, 10, 0.7814, None),
    ("weather", 4, 5, 0.6619, None),
    ("solar", 3, 20, 0.8538, None),
)


def test_a10_public_dataset_ratios():
    root = Path(os.environ.get("VARDROP_DATA_DIR", "data"))
    available = [
        spec for spec in _PUBLIC_DATASETS if (root / f"{spec[0]}.csv").exists()
    ]
    if not available:
        pytest.skip(f"no public dataset CSVs under {root}/")
    lines = []
    ok = True
    for name, k, gs, want_delta, want_tokens in available:
        table = vd.load_csv(str(root / f"{name}.csv"))
        train, _, _ = vd.chronological_split(table, vd.SplitSpec(0.7, 0.1, 0.2))
        windows = vd.sliding_windows(train, 96, 0, 1)
        batches = vd.batch_windows(windows, 32)[:100]
        plans = []
        for i, batch in enumerate(batches):
            bins = vd.kdfh(batch, k, epsilon=25)
            plans.append(
                vd.stratified_sample(
                    vd.group_by_hash(bins), gs, vd.derive_seed(0, f"0:{i}")
                )
            )
        mean_delta = float(np.mean([p.delta for p in plans]))
        mean_tokens = float(np.mean([len(p.retained) for p in plans]))
        std_tokens = float(np.std([len(p.retained) for p in plans]))
        good = abs(mean_delta - want_delta) <= 0.05
        if want_tokens is not None:
            good = good and abs(mean_tokens - want_tokens) <= 0.05 * table.n_variates
        ok = ok and good
        lines.append(
            f"{name}: delta {mean_delta:.4f} (want {want_delta:.4f}), "
            f"tokens {mean_tokens:.1f} +- {std_tokens:.1f}"
        )
    verdict("a10 public-dataset-ratios", ok, "; ".join(lines))


def _determinism_digest():
    pieces = {}
    rng = np.random.default_rng(111)
    hash_keys = []
    for _ in range(50):
        signal, _ = mixture_with_noise(rng)
        hash_keys.append(vd.kdfh(signal[None, None], 3, 25)[0].tolist())
    pieces["hashes"] = hash_keys

    recon = []
    for _ in range(50):
        n = int(rng.integers(2, 7))
        signal, _, _ = sine_mixture(rng, 96, n)
        recon.append(list(vd.reconstruction_error(signal, n - 1)))
    pieces["reconstruction"] = recon

    plans = []
    for i in range(100):
        sizes = rng.integers(1, 30, size=int(rng.integers(1, 9)))
        groups = {}
        cursor = 0
        for g, size in enumerate(sizes):
            groups[str(g + 1)] = tuple(
                range(cursor, cursor + int(size))
            )
            cursor += int(size)
        plan = vd.stratified_sample(
            vd.GroupTable(groups=groups), int(rng.integers(1, 9)), seed=i
        )
        plans.append({"retained": list(plan.retained), "delta": plan.delta})
    pieces["plans"] = plans

    dense = vd.count_flops(64, 96, 32, 16, 24)
    pieces["flops"] = {
        "dense": dense.total,
        "ratios": [
            vd.count_flops(int((1 - d) * 64), 96, 32, 16, 24).attention
            / dense.attention
            for d in (0.0, 0.25, 0.5, 0.75)
        ],
    }

    data = np.random.default_rng(42).normal(size=(1, 5, 16))
    horizon = np.random.default_rng(43).normal(size=(1, 5, 4))
    params = vd.initialize_params(16, 4, 8, 4, seed=42)
    grads = vd.backward(vd.forward(data, horizon, params, range(5)), params)
    pieces["gradients"] = {"w_embed": grads.w_embed, "b_head": grads.b_head}

    table = vd.synth_redundant_detail(16, 4, 800, 0.05, seed=7).table
    batches = vd.batch_windows(vd.sliding_windows(table, 96, 16, 32), 8)
    params = vd.initialize_params(96, 16, 16, 8, seed=7)
    config = vd.RunConfig(k=3, epsilon=25, gs=2, lr=0.02, seed=7)
    params, metrics = vd.train_epoch(batches, params, config, epoch=0)
    pieces["epoch"] = {
        "losses": [m.loss for m in metrics],
        "deltas": [m.delta for m in metrics],
        "w_head": params.w_head,
    }

    detail = vd.synth_redundant_detail(64, 8, 1024, 0.05, seed=3, period=96)
    batch = vd.batch_windows(vd.sliding_windows(detail.table, 96, 0, 96), 16)[0]
    grouped = vd.group_by_hash(vd.kdfh(batch, 3, 25))
    pieces["groups"] = {k: list(v) for k, v in grouped.groups.items()}

    margin_rng = np.random.default_rng(99)
    signal, _, _ = sine_mixture(margin_rng, 96, 3)
    noise = 0.01 * margin_rng.standard_normal(96)
    pieces["margin"] = [
        vd.kdfh(signal[None, None], 3, 25)[0].tolist(),
        vd.kdfh((signal + noise)[None, None], 3, 25)[0].tolist(),
    ]
    return canonical_json(pieces).encode("utf-8")


def test_a11_byte_determinism():
    first = _determinism_digest()
    second = _determinism_digest()
    verdict(
        "a11 byte-determinism",
        first == second,
        f"two full reruns serialize to identical {len(first)}-byte reports",
    )
