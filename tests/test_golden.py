"""Golden digests: every CLI artifact of one small seeded config, pinned.

The byte-determinism check (a11) compares two runs inside one process, so it
cannot notice output that drifts from one version of the package to the
next. This file pins the sha256 of every artifact the subcommands write for
one seeded config, ``timing.txt`` excepted (wall clock), and of ``train``
run again on the CSV the ``synth`` run writes. A refactor must keep every
digest. A deliberate numeric change refreshes the digests below and names
the changed artifacts in CHANGES.md.

The trained weights in ``checkpoint.npz`` are pinned for one CPU kernel
only. Every other artifact is pinned for every kernel, and one test reruns
the config under a second OpenBLAS core to check them.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vardrop
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
    "train": ["train"],
    "dense": ["train", "--vardrop_on=false"],
    "sweep": ["sweep", "--sweep_ks=2,3", "--sweep_gss=1,2", "--epochs=1"],
    # the CSV ingest path, on the table the synth run writes; the path is
    # relative to the output root so config.echo does not name a temp dir
    "csv_train": ["train", "--data=synth/data.csv"],
}

ECHO = "e83849d7ee32cd9e547daf83a115e053b35794b3297bb930ee9df188e7f94a72"
HASHES = "4d689de3a52c0e640e0f2c40ca3d914481bb203a2b94d87229dcaf9d9ce7481f"

GOLDEN = {
    "synth/config.echo": ECHO,
    "synth/data.csv": "f498ad7b49288dcf028f4d6e6ba14226e19059d3526354f87745821546926a45",
    "synth/labels.json": "9d5ac3b9a3fc3238889f6a785dcecb990c2118fbd0e2aeefc0245af677b7e8c1",
    "hash/config.echo": ECHO,
    "hash/hashes.json": HASHES,
    "train/config.echo": ECHO,
    "train/hashes.json": HASHES,
    "train/metrics.csv": "2ac4c84d2abfae3886e80b3bbf5fc77e212d251ad1c9f371608ba8633e52fcfb",
    "train/report.json": "57f27aa8e69e53acd8d0234b9102978c8897f385eedb2f340685f4db3cae3f31",
    "train/checkpoint.npz": "a91a86962581dedb738bca74a4845d519eb01c5c1451faaaddda092768b56b1b",
    "dense/config.echo": "3001b01730ba12ac20de420d895711012d9046536a30b4b9f37b970df0c5ff3b",
    "dense/hashes.json": HASHES,
    "dense/metrics.csv": "0f8976287f1349a5fd8634dccd3969341917cbbeba5ee9c5783bb392cc90bc42",
    "dense/report.json": "1d89c3bdd6334a27c32e9d954927e07fd1abeb55ab4f64370e7616a367267326",
    "dense/checkpoint.npz": "a844f3f6e5151403091c0bf2990b50464e9cfa9176d8f6f8c826f8698ba56690",
    "sweep/config.echo": "fd285940c1035b69f02a0b6ff3096b5ef30b3b4ac4bfdec20952fdc097c92f75",
    "sweep/sweep.csv": "cc8d7279b7a2abe80ff7d2c5dce70c3d32389cddb4b4946ca01537e018b57d43",
    "csv_train/config.echo": "51a6d3f1f0bd4393bcc4acdb768150474244d7497b0a3ea0bc450aa74a8d8b54",
    "csv_train/hashes.json": HASHES,
    "csv_train/metrics.csv": "9d1606af3f8a32c7f14ad83f32b9f77c756a6040df03d00318b475f633320455",
    "csv_train/report.json": "57f27aa8e69e53acd8d0234b9102978c8897f385eedb2f340685f4db3cae3f31",
    "csv_train/checkpoint.npz": "c30d1128f60baf656800012f7388d6f802f46ec0d033997d7a3cc4682fb2f907",
}


# every artifact but the trained weights, which keep each bit of the BLAS
# calls' rounding; metrics, reports and sweep scores print 12 significant
# digits, which a second core has not moved
KERNEL_FREE = sorted(name for name in GOLDEN if not name.endswith("/checkpoint.npz"))


def run_golden(root: Path) -> dict[str, str]:
    """Run every subcommand once under ``root``; map each artifact's relative
    path to its sha256."""
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


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    return run_golden(tmp_path_factory.mktemp("golden"))


def test_artifact_set_is_pinned(artifacts):
    assert sorted(artifacts) == sorted(GOLDEN)


def numpy_blas() -> dict:
    """numpy's BLAS build entry; empty before numpy 1.26, which has no dict mode."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}


def numpy_build() -> str:
    """The numpy version, BLAS build and OpenBLAS core a run used.

    Float artifacts are byte-stable within one numpy build and CPU kernel
    only, so a digest failure names them.
    """
    core = os.environ.get("OPENBLAS_CORETYPE", "default")
    blas = numpy_blas()
    if not blas:
        return f"numpy {np.__version__}, OPENBLAS_CORETYPE={core}"
    build = blas.get("openblas configuration", blas.get("version"))
    return f"numpy {np.__version__}, BLAS {blas.get('name')} {build}, OPENBLAS_CORETYPE={core}"


@pytest.mark.parametrize("artifact", sorted(GOLDEN))
def test_golden_digest(artifacts, artifact):
    got = artifacts.get(artifact)
    assert got == GOLDEN[artifact], (
        f"{artifact}: sha256 {got}, pinned {GOLDEN[artifact]}; ran on {numpy_build()}"
    )


def test_kernel_free_digests_hold_under_a_second_openblas_core(tmp_path):
    blas = numpy_blas()
    if "openblas" not in str(blas.get("name", "")).lower():
        pytest.skip("numpy does not report OpenBLAS, so there is no core to switch")
    config = str(blas.get("openblas configuration", ""))
    if "DYNAMIC_ARCH" not in config:
        pytest.skip(f"OpenBLAS is not DYNAMIC_ARCH, so its core is fixed: {config!r}")
    tests_dir = Path(__file__).resolve().parent
    src_dir = Path(vardrop.__file__).resolve().parents[1]
    paths = [str(src_dir), str(tests_dir), os.environ.get("PYTHONPATH")]
    env = {
        **os.environ,
        "OPENBLAS_CORETYPE": "Sandybridge",  # AVX without FMA
        "PYTHONPATH": os.pathsep.join(filter(None, paths)),
    }
    script = (
        "import json, sys, pathlib, test_golden; "
        "print(json.dumps(test_golden.run_golden(pathlib.Path(sys.argv[1]))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    wrong = [name for name in KERNEL_FREE if got.get(name) != GOLDEN[name]]
    assert not wrong, f"{wrong} moved under OPENBLAS_CORETYPE=Sandybridge"
