"""Config validation, subcommand artifacts, exit codes, and determinism."""

import dataclasses
import errno
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from vardrop import (
    NumericError,
    ParameterError,
    ParseError,
    RunConfig,
    count_flops,
    load_csv,
)
from vardrop import cli, model
from vardrop.cli import (
    canonical_json,
    main,
    parse_config_file,
    validate_config,
)


class TestValidateConfig:
    def test_empty_gives_defaults(self):
        config = validate_config({})
        assert config.T == 96
        assert config.B == 32
        assert config.epsilon == 25
        assert config.k == 3
        assert config.vardrop_on is True
        assert (config.train_frac, config.val_frac, config.test_frac) == (
            0.7, 0.1, 0.2,
        )

    def test_epsilon_range_names_bound(self):
        with pytest.raises(ParameterError) as err:
            validate_config({"epsilon": "60"})
        message = str(err.value)
        assert "epsilon" in message
        assert "48" in message

    def test_unknown_key_rejected(self):
        for key in ("epsilonn", "normalize_windows"):
            with pytest.raises(ParameterError, match="^unknown config key") as err:
                validate_config({key: "25"})
            assert key in str(err.value)

    def test_k_capped_by_epsilon(self):
        with pytest.raises(ParameterError) as err:
            validate_config({"k": "30", "epsilon": "25"})
        assert "k" in str(err.value)

    def test_type_errors_name_key(self):
        with pytest.raises(ParameterError) as err:
            validate_config({"B": "many"})
        assert "B" in str(err.value)
        with pytest.raises(ParameterError):
            validate_config({"vardrop_on": "maybe"})

    def test_bool_spellings(self):
        assert validate_config({"vardrop_on": "off"}).vardrop_on is False
        assert validate_config({"vardrop_on": "1"}).vardrop_on is True

    def test_fraction_sum_checked(self):
        with pytest.raises(ParameterError) as err:
            validate_config({"train_frac": "0.5", "val_frac": "0.1"})
        assert "sum to 1" in str(err.value)

    def test_seed_env_fallback(self, monkeypatch, tmp_path):
        # there is none: the environment cannot change a run's seed
        monkeypatch.setenv("VARDROP_SEED", "777")
        assert validate_config({}).seed == 0
        assert main(["hash", "-o", str(tmp_path)]) == 0
        echo = (tmp_path / "config.echo").read_text().splitlines()
        assert "seed=0" in echo


# (key, text, value, message): one case per config range check, in the
# order the checks run, single-key checks first, then cross-key ones
CONFIG_RANGE_ERRORS = [
    ("k", "0", 0, "k: must be in [1, inf), got 0"),
    ("epsilon", "0", 0, "epsilon: must be in [1, inf), got 0"),
    ("gs", "0", 0, "gs: must be in [1, inf), got 0"),
    ("lr", "0", 0.0, "lr: must be in (0, inf), got 0.0"),
    ("lr", "inf", math.inf, "lr: must be in (0, inf), got inf"),
    ("seed", "-1", -1, "seed: must be in [0, inf), got -1"),
    ("seed", str(2**64), 2**64, f"seed: must be in [0, {2**64 - 1}], got {2**64}"),
    ("delimiter", "ab", "ab", "delimiter: must be in one-character strings, got 'ab'"),
    (
        "delimiter",
        "\n",
        "\n",
        "delimiter: must be in characters other than line breaks, got '\\n'",
    ),
    ("T", "1", 1, "T: must be in [2, inf), got 1"),
    ("H", "-1", -1, "H: must be in [0, inf), got -1"),
    ("B", "0", 0, "B: must be in [1, inf), got 0"),
    ("stride", "0", 0, "stride: must be in [1, inf), got 0"),
    ("d", "0", 0, "d: must be in [1, inf), got 0"),
    ("d_k", "0", 0, "d_k: must be in [1, inf), got 0"),
    ("epochs", "0", 0, "epochs: must be in [1, inf), got 0"),
    ("synth_n", "0", 0, "synth_n: must be in [1, inf), got 0"),
    ("synth_g", "0", 0, "synth_g: must be in [1, 64] (at most synth_n), got 0"),
    ("synth_sigma", "-0.5", -0.5, "synth_sigma: must be in [0, inf), got -0.5"),
    ("synth_sigma", "inf", math.inf, "synth_sigma: must be in [0, inf), got inf"),
    ("synth_length", "0", 0, "synth_length: must be in [1, inf), got 0"),
    ("train_frac", "-0.1", -0.1, "train_frac: must be in [0, 1], got -0.1"),
    ("val_frac", "1.5", 1.5, "val_frac: must be in [0, 1], got 1.5"),
    ("test_frac", "-0.2", -0.2, "test_frac: must be in [0, 1], got -0.2"),
    ("k", "26", 26, "k: must be in [1, 25] (at most epsilon), got 26"),
    ("epsilon", "49", 49, "epsilon: must be in [1, 48] (floor(T/2) for T=96), got 49"),
    ("synth_g", "65", 65, "synth_g: must be in [1, 64] (at most synth_n), got 65"),
    (
        "train_frac",
        "0.5",
        0.5,
        "train_frac/val_frac/test_frac: must sum to 1, got 0.8",
    ),
]


@pytest.mark.parametrize(
    "key, text, value, message",
    CONFIG_RANGE_ERRORS,
    ids=[f"{key}={text}" for key, text, _, _ in CONFIG_RANGE_ERRORS],
)
def test_config_checks_itself_however_built(key, text, value, message):
    # parsed from text, built in code or replaced: one check, one message
    builds = (
        lambda: validate_config({key: text}),
        lambda: RunConfig(**{key: value}),
        lambda: dataclasses.replace(validate_config({}), **{key: value}),
    )
    for build in builds:
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            build()


# (key, value, message): values of the wrong kind, checked before any range
# check
CONFIG_KIND_ERRORS = [
    ("T", "96", "T: expected int, got '96'"),
    ("lr", "0.1", "lr: expected float, got '0.1'"),
    ("k", "3", "k: expected int, got '3'"),
    ("vardrop_on", "false", "vardrop_on: expected bool, got 'false'"),
    ("k", 2.5, "k: expected int, got 2.5"),
    ("B", True, "B: expected int, got True"),
]


@pytest.mark.parametrize(
    "key, value, message",
    CONFIG_KIND_ERRORS,
    ids=[f"RunConfig.{key}={value!r}" for key, value, _ in CONFIG_KIND_ERRORS],
)
def test_config_checks_field_kinds(key, value, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        RunConfig(**{key: value})


def test_config_kinds_take_numpy_and_int_values():
    assert RunConfig(T=np.int64(96)).T == 96
    assert RunConfig(lr=1).lr == 1


class TestParseConfigFile:
    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# run\nT=48\n\nk = 4\n")
        assert parse_config_file(str(path)) == {"T": "48", "k": "4"}

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("T=48\njust words\n")
        with pytest.raises(ParseError) as err:
            parse_config_file(str(path))
        assert f"{path}:2" in str(err.value)

    def test_repeated_key_names_both_lines(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("k=2\n# again\nT=48\n k = 5\n")
        with pytest.raises(ParseError) as err:
            parse_config_file(str(path))
        assert str(err.value) == f"{path}:4: key 'k' repeated, first set on line 1"

    def test_whitespace_value_kept_as_written(self, tmp_path):
        # any other value is stripped; a tab delimiter would strip to nothing
        path = tmp_path / "run.cfg"
        path.write_text("delimiter=\t\nk = 3\ndata = x.csv \n")
        assert parse_config_file(str(path)) == {"delimiter": "\t", "k": "3", "data": "x.csv"}

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"\xef\xbb\xbfT=48\n")
        assert parse_config_file(str(path)) == {"T": "48"}

    def test_invalid_utf8_is_parse_error(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"T=48\n\xff=1\n")
        with pytest.raises(ParseError) as err:
            parse_config_file(str(path))
        assert str(err.value) == f"{path}: not UTF-8 text (invalid start byte)"

    def test_missing_file_is_io_error(self):
        from vardrop import PipelineIOError

        with pytest.raises(PipelineIOError):
            parse_config_file("/nonexistent/run.cfg")


class TestCanonicalJson:
    def test_sorted_compact_and_newline(self):
        text = canonical_json({"b": 1, "a": [1.5, True, None]})
        assert text == '{"a":[1.5,true,null],"b":1}\n'

    def test_float_formatting(self):
        assert canonical_json(0.1) == "0.1\n"
        assert canonical_json(2.0 / 3.0) == "0.666666666667\n"

    def test_ndarray(self):
        assert canonical_json(np.arange(3)) == "[0,1,2]\n"

    @pytest.mark.parametrize("kind", [float, np.float64, np.float32])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_float_is_a_numeric_error(self, kind, value):
        # JSON has no token for these; json.loads rejects a bare inf or nan
        message = f"^cannot serialize non-finite float {value!r} to JSON$"
        with pytest.raises(NumericError, match=message):
            canonical_json({"val_loss": [kind(value)]})

    def test_unknown_type_is_refused(self):
        with pytest.raises(ParameterError, match="^cannot serialize set to JSON$"):
            canonical_json({1, 2})


def fig4a_csv(path):
    t = np.arange(96)
    v0 = (3.0 * np.sin(2 * np.pi * 4 * t / 96)
          + 1.0 * np.sin(2 * np.pi * 8 * t / 96)
          + 2.0 * np.sin(2 * np.pi * 12 * t / 96))
    v1 = (2.0 * np.sin(2 * np.pi * 4 * t / 96)
          + 1.0 * np.sin(2 * np.pi * 8 * t / 96)
          + 3.0 * np.sin(2 * np.pi * 12 * t / 96))
    lines = ["a,b"] + [f"{v0[i]:.17g},{v1[i]:.17g}" for i in range(96)]
    path.write_text("\n".join(lines) + "\n")


TINY_TRAIN = [
    "--synth_n=8", "--synth_g=2", "--synth_length=400", "--synth_sigma=0.05",
    "--T=24", "--H=8", "--epsilon=12", "--k=3", "--gs=1", "--B=8",
    "--d=8", "--d_k=4", "--lr=0.01", "--epochs=2", "--seed=5",
]


def read(path):
    return path.read_bytes()


class TestMain:
    def test_synth_artifacts(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main([
            "synth", "-o", str(out),
            "--synth_n=6", "--synth_g=3", "--synth_length=200", "--seed=1",
        ])
        assert code == 0
        assert (out / "config.echo").exists()
        sidecar = json.loads((out / "labels.json").read_text())
        assert sidecar["labels"] == [0, 1, 2, 0, 1, 2]
        assert len(sidecar["prototypes"]) == 3
        for proto in sidecar["prototypes"]:
            assert set(proto) == {"bins", "amps"}
            assert len(proto["bins"]) == len(proto["amps"])
        data = (out / "data.csv").read_text().splitlines()
        assert data[0] == "v000,v001,v002,v003,v004,v005"
        assert len(data) == 201
        # every artifact ends its lines with \n, data.csv included, and
        # load_csv reads back the values as written, at 12 significant digits
        assert b"\r" not in (out / "data.csv").read_bytes()
        want = RunConfig(synth_n=6, synth_g=3, synth_length=200, seed=1).synth_detail()
        back = load_csv(str(out / "data.csv"))
        assert back.names == want.table.names
        written = [[float(f"{v:.12g}") for v in row] for row in want.table.values]
        np.testing.assert_array_equal(back.values, written)
        assert "synth: wrote 6 variates" in capsys.readouterr().out

    def test_tab_delimiter_from_a_config_file(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "delimiter=\t\nsynth_n=4\nsynth_g=2\nsynth_length=200\n"
            "T=16\nH=4\nepsilon=8\nB=8\nd=8\nd_k=4\nepochs=1\n"
        )
        assert main(["synth", "-c", str(config), "-o", str(tmp_path / "s")]) == 0
        data = tmp_path / "s" / "data.csv"
        assert data.read_text().splitlines()[0] == "v000\tv001\tv002\tv003"
        out = tmp_path / "t"
        assert main(["train", "-c", str(config), "-o", str(out), f"--data={data}"]) == 0
        assert (out / "report.json").exists()
        assert "delimiter=\t\n" in (out / "config.echo").read_text()

    def test_hash_fixture_groups(self, tmp_path, capsys):
        csv_path = tmp_path / "fig.csv"
        fig4a_csv(csv_path)
        out = tmp_path / "o"
        code = main([
            "hash", "-o", str(out),
            f"--data={csv_path}", "--k=3", "--epsilon=25", "--T=96",
        ])
        assert code == 0
        payload = json.loads((out / "hashes.json").read_text())
        assert payload["hashes"] == ["4-12-8", "12-4-8"]
        assert payload["groups"] == {"4-12-8": [0], "12-4-8": [1]}
        assert payload["k"] == 3
        assert "2 variates -> 2 groups" in capsys.readouterr().out

    def test_dense_reduce_reports_the_plan_train_uses(self, tmp_path):
        out = tmp_path / "o"
        code = main(["train", "-o", str(out)] + TINY_TRAIN + ["--vardrop_on=false"])
        assert code == 0
        metrics = (out / "metrics.csv").read_text().splitlines()[1:]
        assert len(metrics) > 1
        for line in metrics:
            _, _, _, tokens, delta, _ = line.split(",")
            assert (tokens, float(delta)) == ("8", 0.0)

    def test_train_artifacts(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["train", "-o", str(out)] + TINY_TRAIN)
        assert code == 0
        assert {p.name for p in out.iterdir()} == {
            "config.echo", "metrics.csv", "hashes.json", "report.json",
            "checkpoint.npz", "timing.txt",
        }
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "epoch,batch,loss,tokens_used,delta,flops"
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {"epochs", "reduction", "flops", "val_loss",
                               "checkpoint"}
        assert len(report["epochs"]) == 2
        assert report["reduction"]["mean_tokens"] == 2.0  # two groups, gs=1
        assert set(report["flops"]) == {"total", "attention", "dense_attention"}
        assert report["flops"]["attention"] < report["flops"]["total"]
        ck = np.load(out / "checkpoint.npz")
        assert ck["w_embed"].shape == (24, 8)
        assert int(ck["seed"]) == 5
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("epoch 0: loss=") for line in lines)
        assert lines[-1].startswith("train: done, val_loss=")

    @pytest.mark.parametrize("workers", [1, 3])
    def test_timing_names_the_worker_count(self, tmp_path, monkeypatch, workers):
        monkeypatch.setattr(model, "_WORKERS", workers)
        out = tmp_path / "o"
        assert main(["train", "-o", str(out)] + TINY_TRAIN) == 0
        lines = (out / "timing.txt").read_text().splitlines()
        assert lines[0] == f"workers: {workers}"
        assert [line.split(":")[0] for line in lines[1:]] == ["epoch 0", "epoch 1"]

    def test_largest_seed_checkpoint_loads(self, tmp_path):
        out = tmp_path / "o"
        assert main(["train", "-o", str(out)] + TINY_TRAIN + [f"--seed={2**64 - 1}"]) == 0
        ck = np.load(out / "checkpoint.npz")
        assert int(ck["seed"]) == 2**64 - 1

    def test_train_dense_vs_reduced(self, tmp_path):
        out_on = tmp_path / "on"
        out_off = tmp_path / "off"
        assert main(["train", "-o", str(out_on)] + TINY_TRAIN) == 0
        assert main(
            ["train", "-o", str(out_off)] + TINY_TRAIN + ["--vardrop_on=false"]
        ) == 0
        echo_on = (out_on / "config.echo").read_text().splitlines()
        echo_off = (out_off / "config.echo").read_text().splitlines()
        diff = set(echo_on) ^ set(echo_off)
        assert diff == {"vardrop_on=true", "vardrop_on=false"}
        for line in (out_off / "metrics.csv").read_text().splitlines()[1:]:
            _, _, _, tokens, delta, _ = line.split(",")
            assert tokens == "8"
            assert float(delta) == 0.0
        on_report = json.loads((out_on / "report.json").read_text())
        off_report = json.loads((out_off / "report.json").read_text())
        assert on_report["reduction"]["mean_delta"] > 0.5
        assert off_report["reduction"]["mean_delta"] == 0.0
        assert on_report["flops"]["total"] < off_report["flops"]["total"]
        # a dense run spends exactly its dense attention cost
        dense_attention = off_report["flops"]["dense_attention"]
        assert off_report["flops"]["attention"] == dense_attention
        assert on_report["flops"]["dense_attention"] == dense_attention

    def test_train_reduction_stats_match_the_metrics(self, tmp_path):
        # noise this strong splits the two groups differently from batch to
        # batch, so the kept-token count varies and its spread is not 0
        out = tmp_path / "o"
        assert main(["train", "-o", str(out)] + TINY_TRAIN + ["--synth_sigma=1.0"]) == 0
        rows = [line.split(",") for line in (out / "metrics.csv").read_text().splitlines()[1:]]
        report = json.loads((out / "report.json").read_text())

        def stats(selected):
            tokens = np.array([float(row[3]) for row in selected])
            deltas = np.array([float(row[4]) for row in selected])
            return tokens.mean(), tokens.std(), deltas.mean()

        mean_tokens, std_tokens, mean_delta = stats(rows)
        assert std_tokens > 0
        want = {"mean_tokens": mean_tokens, "std_tokens": std_tokens, "mean_delta": mean_delta}
        assert report["reduction"] == {key: float("%.12g" % v) for key, v in want.items()}
        for row in report["epochs"]:
            mean_tokens, _, mean_delta = stats([r for r in rows if int(r[0]) == row["epoch"]])
            assert row["mean_tokens"] == float("%.12g" % mean_tokens)
            assert row["mean_delta"] == float("%.12g" % mean_delta)

    def test_train_hashes_each_batch_once(self, tmp_path, monkeypatch):
        # hashes.json and every epoch share one hash of each training batch;
        # every hash, whoever asks for it, takes one batch spectrum
        import vardrop.spectral as spectral

        calls = []
        real = spectral.batch_mean_spectrum

        def counting(batch, *args, **kwargs):
            calls.append(id(batch))
            return real(batch, *args, **kwargs)

        monkeypatch.setattr(spectral, "batch_mean_spectrum", counting)
        assert main(["train", "-o", str(tmp_path / "o")] + TINY_TRAIN) == 0
        rows = (tmp_path / "o" / "metrics.csv").read_text().splitlines()[1:]
        n_batches = len({row.split(",")[1] for row in rows})
        assert len(calls) == len(set(calls)) == n_batches

    def test_train_runs_are_byte_identical(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["train", "-o", str(out_a)] + TINY_TRAIN) == 0
        assert main(["train", "-o", str(out_b)] + TINY_TRAIN) == 0
        for name in ("config.echo", "metrics.csv", "hashes.json",
                     "report.json", "checkpoint.npz"):
            assert read(out_a / name) == read(out_b / name), name

    def test_train_reports_its_dense_attention_cost(self, tmp_path):
        # each batch's FLOPs are its size times the ledger at its kept count,
        # so metrics.csv gives every batch's size and token count
        out = tmp_path / "o"
        assert main(["train", "-o", str(out)] + TINY_TRAIN + ["--synth_sigma=1.0"]) == 0
        flops = json.loads((out / "report.json").read_text())["flops"]
        rows = [line.split(",") for line in (out / "metrics.csv").read_text().splitlines()[1:]]

        def ledger(n_tokens):
            return count_flops(n_tokens, lookback=24, embed_dim=8, attn_dim=4, horizon=8)

        sizes, tokens, deltas = [], [], []
        for row in rows:
            size, rest = divmod(int(row[5]), ledger(int(row[3])).total)
            assert rest == 0
            sizes.append(size)
            tokens.append(int(row[3]))
            deltas.append(float(row[4]))
        assert len(set(sizes)) > 1 and len(set(tokens)) > 1
        n = 8
        assert flops["dense_attention"] == sum(s * ledger(n).attention for s in sizes)
        # attention scales with the square of the kept count, so the ratio
        # is exactly the size-weighted mean of (N' / N)^2 = (1 - delta)^2
        weighted = sum(s * t * t for s, t in zip(sizes, tokens))
        assert flops["attention"] * n * n * sum(sizes) == flops["dense_attention"] * weighted
        ratio = flops["attention"] / flops["dense_attention"]
        mean_sq = sum(s * (1.0 - d) ** 2 for s, d in zip(sizes, deltas)) / sum(sizes)
        assert math.isclose(ratio, mean_sq, rel_tol=1e-9)
        assert ratio < 1.0

    def test_config_file_and_override_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=5\nsynth_n=6\nsynth_g=3\nsynth_length=200\n")
        out = tmp_path / "o"
        code = main(["synth", "-c", str(cfg), "-o", str(out), "--seed=9"])
        assert code == 0
        echo = (out / "config.echo").read_text()
        assert "seed=9" in echo
        assert "synth_n=6" in echo

    def test_config_echo_round_trips(self, tmp_path):
        out = tmp_path / "o"
        assert main(["synth", "-o", str(out), "--synth_length=150"]) == 0
        raw = parse_config_file(str(out / "config.echo"))
        config = validate_config(raw)
        assert config == validate_config({"synth_length": "150"})


def test_cli_binds_no_training_function():
    # train reaches the model through run alone
    for name in ("initialize_params", "train_epoch", "validation_loss"):
        assert not hasattr(cli, name), name


def test_readme_lists_exactly_the_subcommands():
    # the README's subcommand table names every choice main accepts and no
    # other, so adding or deleting a subcommand cannot leave the docs behind
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("| subcommand | what it does |", 1)[1].split("\n\n", 1)[0]
    listed = re.findall(r"^\| `([a-z]+)` +\|", table, re.M)
    assert sorted(listed) == sorted(cli._COMMANDS)


class TestExitCodes:
    def test_validation_error(self, tmp_path, capsys):
        code = main(["hash", "-o", str(tmp_path / "o"), "--epsilon=60"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error [validation]:")

    @pytest.mark.parametrize(
        "override, key",
        [
            ("--k=0", "k"),
            ("--gs=0", "gs"),
            ("--lr=0", "lr"),
            ("--k=30", "k"),
            (f"--seed={2**70}", "seed"),
            ("--train_frac=-0.1", "train_frac"),
            ("--train_frac=0.5", "train_frac/val_frac/test_frac"),
        ],
    )
    def test_range_error_names_the_key(self, tmp_path, capsys, override, key):
        code = main(["hash", "-o", str(tmp_path / "o"), override])
        assert code == 3
        assert capsys.readouterr().err.startswith(f"error [validation]: {key}:")

    @pytest.mark.parametrize("source", ["override", "config file"])
    def test_dropped_corr_threshold_is_an_unknown_key(self, tmp_path, capsys, source):
        # no subcommand reads corr_threshold, so it is refused like any unknown key
        cfg = tmp_path / "run.cfg"
        cfg.write_text("corr_threshold=0.9\n")
        args = ["--corr_threshold=0.9"] if source == "override" else ["-c", str(cfg)]
        code = main(["hash", "-o", str(tmp_path / "o"), *args])
        assert code == 3
        assert capsys.readouterr().err == (
            "error [validation]: unknown config key(s): corr_threshold\n"
        )

    @pytest.mark.parametrize("key", ["sweep_ks", "sweep_gss"])
    def test_dropped_sweep_lists_are_unknown_keys(self, tmp_path, capsys, key):
        # the sweep subcommand is gone, and its grid lists with it
        code = main(["hash", "-o", str(tmp_path / "o"), f"--{key}=2"])
        assert code == 3
        assert capsys.readouterr().err == f"error [validation]: unknown config key(s): {key}\n"

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\nx,4\n")
        code = main(["hash", "-o", str(tmp_path / "o"), f"--data={bad}", "--T=2",
                     "--epsilon=1", "--k=1"])
        assert code == 2
        assert "error [parse]:" in capsys.readouterr().err

    def test_invalid_utf8_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"a,b\n1,2\n\xff,4\n")
        code = main(["hash", "-o", str(tmp_path / "o"), f"--data={bad}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error [parse]: {bad}: not UTF-8 text (invalid start byte)\n"

    def test_invalid_utf8_config_is_parse_error(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"\xff\n")
        code = main(["hash", "-c", str(config), "-o", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error [parse]: {config}: not UTF-8 text (invalid start byte)\n"

    def test_config_line_with_empty_key_is_parse_error(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("T=48\n=5\n")
        code = main(["hash", "-c", str(config), "-o", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error [parse]: {config}:2: expected key=value, got '=5'\n"

    def test_oversized_field_is_parse_error(self, tmp_path, capsys):
        # numpy's reader takes the 200,000-digit cell, then stops at the bad
        # cell; the row parser takes the long cell too and names the bad one
        bad = tmp_path / "wide.csv"
        bad.write_text("a,b\n1,2\n" + "0" * 200_000 + ",1\n3,x\n")
        code = main(["hash", "-o", str(tmp_path / "o"), f"--data={bad}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error [parse]: {bad}:4: non-numeric value 'x' in column 'b'\n"

    def test_quote_delimiter_is_parse_error(self, tmp_path, capsys):
        # numpy's reader refuses '"' as a delimiter; the row parser decides
        data = tmp_path / "d.csv"
        data.write_text("a,b\n1,2\n3,4\n")
        code = main(["hash", "-o", str(tmp_path / "o"), f"--data={data}", '--delimiter="'])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error [parse]: {data}: no variate columns after dropping timestamp\n"

    def test_io_error(self, tmp_path, capsys):
        code = main([
            "hash", "-o", str(tmp_path / "o"), "--data=/nonexistent/x.csv",
        ])
        assert code == 5
        assert "error [io]:" in capsys.readouterr().err

    def test_file_in_place_of_the_output_dir(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        out = afile / "sub"
        code = main(["hash", "-o", str(out)])
        assert code == 5
        reason = f"[Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}: '{out}'"
        assert capsys.readouterr().err == (
            f"error [io]: cannot create output dir {out}: {reason}\n"
        )

    @pytest.mark.parametrize(
        "command, blocked, message",
        [
            (["hash"], "config.echo", "cannot write {path}"),
            (
                ["synth", "--synth_n=4", "--synth_g=2", "--synth_length=50",
                 "--T=10", "--epsilon=5", "--k=2"],
                "data.csv",
                "cannot write {path}",
            ),
            (["train"] + TINY_TRAIN, "checkpoint.npz", "cannot write checkpoint"),
        ],
        ids=["config.echo", "data.csv", "checkpoint.npz"],
    )
    def test_directory_in_place_of_an_output_file(self, tmp_path, capsys, command,
                                                  blocked, message):
        out = tmp_path / "o"
        path = out / blocked
        path.mkdir(parents=True)
        code = main([command[0], "-o", str(out), *command[1:]])
        assert code == 5
        reason = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{path}'"
        assert capsys.readouterr().err == (
            f"error [io]: {message.format(path=path)}: {reason}\n"
        )
        if blocked == "checkpoint.npz":
            # a train run writes nothing before its checkpoint, so no
            # report.json claims a finished run
            assert sorted(p.name for p in out.iterdir()) == ["checkpoint.npz", "config.echo"]

    def test_numeric_error(self, tmp_path, capsys):
        code = main(
            ["train", "-o", str(tmp_path / "o")] + TINY_TRAIN
            + ["--lr=1e9", "--epochs=4"]
        )
        assert code == 4
        assert "error [numeric]:" in capsys.readouterr().err

    def test_diverging_train_leaves_only_the_config_echo(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["train", "-o", str(out)] + TINY_TRAIN + ["--lr=1e60"])
        assert code == 4
        assert capsys.readouterr().err.startswith("error [numeric]:")
        assert [p.name for p in out.iterdir()] == ["config.echo"]

    def test_malformed_override(self, tmp_path, capsys):
        code = main(["synth", "-o", str(tmp_path / "o"), "--seed", "9"])
        assert code == 3
        assert "--key=value" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["synth", "hash", "train"])
    def test_negative_seed_is_validation_error(self, tmp_path, capsys, command):
        code = main([command, "-o", str(tmp_path / "o"), "--seed=-1"])
        assert code == 3
        assert capsys.readouterr().err.startswith("error [validation]: seed:")

    @pytest.mark.parametrize("command", ["synth", "hash", "train"])
    def test_short_synthetic_period_names_t(self, tmp_path, capsys, command):
        # the synthetic period is T, so the error names T, not period
        code = main([command, "-o", str(tmp_path / "o"), "--T=4", "--epsilon=2",
                     "--k=1", "--synth_length=50"])
        assert code == 3
        assert capsys.readouterr().err == (
            "error [validation]: T: must be in [10, inf) for synthetic data, got 4\n"
        )

    @pytest.mark.parametrize("source", ["synthetic", "csv"])
    def test_hash_on_a_table_shorter_than_t_names_t(self, tmp_path, capsys, source):
        # hash needs one lookback of T timestamps, and the error names the key
        data = tmp_path / "d.csv"
        data.write_text("a,b\n1,2\n3,4\n")
        table = "--synth_length=50" if source == "synthetic" else f"--data={data}"
        length = 50 if source == "synthetic" else 2
        assert main(["hash", "-o", str(tmp_path / "o"), table]) == 3
        assert capsys.readouterr().err == (
            f"error [validation]: T: table of length {length} is shorter than T=96\n"
        )

    def test_short_t_still_runs_on_data(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("a,b\n" + "".join(f"{i % 3},{i % 5}\n" for i in range(12)))
        small = ["--T=4", "--epsilon=2", "--k=1"]
        assert main(["hash", "-o", str(tmp_path / "h"), f"--data={data}"] + small) == 0

    @pytest.mark.parametrize("delimiter", [";;", ""])
    def test_delimiter_must_be_one_character(self, tmp_path, capsys, delimiter):
        code = main(["synth", "-o", str(tmp_path / "o"), f"--delimiter={delimiter}"])
        assert code == 3
        assert capsys.readouterr().err.startswith("error [validation]: delimiter:")

    @pytest.mark.parametrize("delimiter", ["\n", "\r"], ids=["LF", "CR"])
    def test_line_break_delimiter_is_validation_error(self, tmp_path, capsys, delimiter):
        # a line break ends a row, so load_csv could not read the file back
        out = tmp_path / "o"
        assert main(["synth", "-o", str(out), f"--delimiter={delimiter}"]) == 3
        assert capsys.readouterr().err == (
            "error [validation]: delimiter: must be in characters other than "
            f"line breaks, got {delimiter!r}\n"
        )
        assert not (out / "data.csv").exists()

    def test_short_split_is_validation_error(self, tmp_path, capsys):
        # the message names the split that is too short and its length, not
        # the table's; a training window spans T+H = 192 timestamps
        cases = [
            ("300", "validation split of length 30"),
            ("250", "training split of length 175"),
        ]
        for length, split in cases:
            code = main([
                "train", "-o", str(tmp_path / "o"),
                "--synth_n=4", "--synth_g=2", f"--synth_length={length}",
            ])
            assert code == 3
            assert capsys.readouterr().err == (
                f"error [validation]: T: {split} is shorter than T+H=192\n"
            )

