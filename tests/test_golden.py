"""Golden digests: every CLI artifact of one small seeded config, pinned.

The byte-determinism check (a11) compares two runs inside one process, so it
cannot notice output that drifts from one version of the package to the
next. This file pins the sha256 of every artifact the subcommands write for
one seeded config, ``timing.txt`` excepted (wall clock), and of ``train``
and ``analyze`` run again on the CSV the ``synth`` run writes. A refactor
must keep every digest. A deliberate numeric change refreshes the digests below and
names the changed artifacts in CHANGES.md.
"""

import contextlib
import hashlib
import io

import pytest

from vardrop.cli import main

CONFIG = [
    "--synth_n=16",
    "--synth_g=4",
    "--synth_length=2000",
    "--T=96",
    "--H=16",
    "--B=8",
    "--stride=16",
    "--d=16",
    "--d_k=8",
    "--epochs=2",
    "--gs=2",
    "--seed=7",
]

# output directory -> subcommand plus overrides applied after CONFIG
RUNS = {
    "synth": ["synth"],
    "hash": ["hash"],
    "reduce": ["reduce"],
    "analyze": ["analyze"],
    "bench": ["bench"],
    "train": ["train"],
    "dense": ["train", "--vardrop_on=false"],
    "sweep": ["sweep", "--sweep_ks=2,3", "--sweep_gss=1,2", "--epochs=1"],
    # the CSV ingest path, on the table the synth run writes; the path is
    # relative to the output root so config.echo does not name a temp dir
    "csv_train": ["train", "--data=synth/data.csv"],
    "csv_analyze": ["analyze", "--data=synth/data.csv"],
}

ECHO = "a15f6b7bb2983b9f9be53854fc698d60296695c41b5d559fd51e21712931f8cf"
HASHES = "4d689de3a52c0e640e0f2c40ca3d914481bb203a2b94d87229dcaf9d9ce7481f"
CSV_ECHO = "c599fbb2612afc5c24f5d6d83d6b44ee6fd80d19162ba978a2d40c96360878c0"

GOLDEN = {
    "synth/config.echo": ECHO,
    "synth/data.csv": "f498ad7b49288dcf028f4d6e6ba14226e19059d3526354f87745821546926a45",
    "synth/labels.json": "9d5ac3b9a3fc3238889f6a785dcecb990c2118fbd0e2aeefc0245af677b7e8c1",
    "hash/config.echo": ECHO,
    "hash/hashes.json": HASHES,
    "reduce/config.echo": ECHO,
    "reduce/reduction.csv": "fbe7e31d665191f82e9ea8c29c6ccb603b72daf2ecb5d0e43d6700a11862b8fd",
    "reduce/report.json": "d1bcebf8e1dbf9e13b8a056433034eedd9ade260b7b6863356ec2394f1e6f90e",
    "analyze/config.echo": ECHO,
    "analyze/corr_matrix.csv": "e7465d4bccf315d9ddeb175c8b6fa4b424e59b97287a30779979d176f8b093be",
    "analyze/redundancy.csv": "9ece649bedd2e3ef465c39b80644e07f5ea1aff42db68c51c202edebe7c871d2",
    "analyze/shift.json": "02e18b63e094ac9a9edb1e02dee1b208b9ee8e83ddd524711fbc55eb6f7063c5",
    "bench/config.echo": ECHO,
    "bench/report.json": "1f3933f71edd85cf941b2e8da6f7d3c6884b5507f70eeaaeba988187928f97d1",
    "train/config.echo": ECHO,
    "train/hashes.json": HASHES,
    "train/metrics.csv": "2ac4c84d2abfae3886e80b3bbf5fc77e212d251ad1c9f371608ba8633e52fcfb",
    "train/reduction.csv": "0c83d89a59daba7f70d1695b3bb980024793efa225df2f3e482896a1112d2091",
    "train/report.json": "148f68d5efc69fe2d0c0f63f397531708af87f852a237b850ffba91944a93554",
    "train/checkpoint.npz": "aaa318f937d0e6fbead6c99d6c2eda785cc7dcf1deef04383d8c66503fe2f5f6",
    "dense/config.echo": "33d0ef864877f323bcb4b0441fb2e1073e918635c3a9a4db9b75db28686225e3",
    "dense/hashes.json": HASHES,
    "dense/metrics.csv": "0f8976287f1349a5fd8634dccd3969341917cbbeba5ee9c5783bb392cc90bc42",
    "dense/reduction.csv": "3cc2598c9d843311d154da90eecd38035abb6adb6ee2a2ef603dd64f7466aea5",
    "dense/report.json": "dc8e0e2158de13d354b0a0875982793f8868db80d682887b24d6a6df5b34bbb3",
    "dense/checkpoint.npz": "e365f3b76b6000d62d22a5a160c9bee9680ec6ebc236e161f9e7d09fdbdf3d4a",
    "sweep/config.echo": "3e231741485bb833d2f6db987c8cfa0a4c43e62a0bb673558feac756dfd18d07",
    "sweep/sweep.csv": "cc8d7279b7a2abe80ff7d2c5dce70c3d32389cddb4b4946ca01537e018b57d43",
    "csv_train/config.echo": CSV_ECHO,
    "csv_train/hashes.json": HASHES,
    "csv_train/metrics.csv": "9d1606af3f8a32c7f14ad83f32b9f77c756a6040df03d00318b475f633320455",
    "csv_train/reduction.csv": "0c83d89a59daba7f70d1695b3bb980024793efa225df2f3e482896a1112d2091",
    "csv_train/report.json": "148f68d5efc69fe2d0c0f63f397531708af87f852a237b850ffba91944a93554",
    "csv_train/checkpoint.npz": "3b20bc70bf3af27e4e8a3a541563baef134dea1d4ad16c5ba2ce8ff24a1eca45",
    "csv_analyze/config.echo": CSV_ECHO,
    "csv_analyze/corr_matrix.csv": "7b18162ea8c30f5d849b5c2c5e575ab8102e5fc52ceee57c02a11c2837164e90",
    "csv_analyze/redundancy.csv": "9ece649bedd2e3ef465c39b80644e07f5ea1aff42db68c51c202edebe7c871d2",
    "csv_analyze/shift.json": "d93d78e25b0a6a8f1634c061b48c3a091517b4491b04187ebf4810cdc3a0f409",
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Run every subcommand once; map each artifact's relative path to its sha256."""
    root = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        for name, (command, *overrides) in RUNS.items():
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "-o", str(root / name), *CONFIG, *overrides])
            assert code == 0, f"{name} exited with {code}"
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in root.rglob("*")
        if path.is_file() and path.name != "timing.txt"
    }


def test_artifact_set_is_pinned(artifacts):
    assert sorted(artifacts) == sorted(GOLDEN)


@pytest.mark.parametrize("artifact", sorted(GOLDEN))
def test_golden_digest(artifacts, artifact):
    assert artifacts.get(artifact) == GOLDEN[artifact]
