"""Golden digests: every CLI artifact of one small seeded config, pinned.

The byte-determinism check (a11) compares two runs inside one process, so it
cannot notice output that drifts from one version of the package to the
next. This file pins the sha256 of every artifact the subcommands write for
one seeded config, ``timing.txt`` excepted (wall clock), and of ``train``
and ``analyze`` run again on the CSV the ``synth`` run writes. A refactor
must keep every digest. A deliberate numeric change refreshes the digests below and
names the changed artifacts in CHANGES.md.

Float artifacts that pass through a BLAS call are pinned for one CPU kernel
only. The rest are pinned for every kernel, and one test reruns the config
under a second OpenBLAS core to check them.
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
    "reduce": ["reduce"],
    "analyze": ["analyze"],
    "train": ["train"],
    "dense": ["train", "--vardrop_on=false"],
    "sweep": ["sweep", "--sweep_ks=2,3", "--sweep_gss=1,2", "--epochs=1"],
    # the CSV ingest path, on the table the synth run writes; the path is
    # relative to the output root so config.echo does not name a temp dir
    "csv_train": ["train", "--data=synth/data.csv"],
    "csv_analyze": ["analyze", "--data=synth/data.csv"],
}

ECHO = "a5774a60e2b0c6981f67760eae7143c7f0f68dcc23edd6554d64dc289578cfd8"
HASHES = "4d689de3a52c0e640e0f2c40ca3d914481bb203a2b94d87229dcaf9d9ce7481f"
CSV_ECHO = "5eaa833c161fe1a663992d159cfe0d594592985ca13e12b8024196e2fc37b9f2"

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
    "train/config.echo": ECHO,
    "train/hashes.json": HASHES,
    "train/metrics.csv": "2ac4c84d2abfae3886e80b3bbf5fc77e212d251ad1c9f371608ba8633e52fcfb",
    "train/reduction.csv": "0c83d89a59daba7f70d1695b3bb980024793efa225df2f3e482896a1112d2091",
    "train/report.json": "57f27aa8e69e53acd8d0234b9102978c8897f385eedb2f340685f4db3cae3f31",
    "train/checkpoint.npz": "192f71e8111015a607f7a2b6086a64b8ca9d8546c5b2ca8ba7baec2f2fb56208",
    "dense/config.echo": "5642a26b313557cb22dc77702853b77c864f1f32e610255e4392e810b125a8a2",
    "dense/hashes.json": HASHES,
    "dense/metrics.csv": "0f8976287f1349a5fd8634dccd3969341917cbbeba5ee9c5783bb392cc90bc42",
    "dense/reduction.csv": "3cc2598c9d843311d154da90eecd38035abb6adb6ee2a2ef603dd64f7466aea5",
    "dense/report.json": "1d89c3bdd6334a27c32e9d954927e07fd1abeb55ab4f64370e7616a367267326",
    "dense/checkpoint.npz": "a1e057e2904b0d556fe3d9d61d2a672ded4dff55a923bd2326dd220f45a0c74f",
    "sweep/config.echo": "1946a12a7b95fc03716bd9acb887bb108c25e3d78154039325897e1338120f31",
    "sweep/sweep.csv": "cc8d7279b7a2abe80ff7d2c5dce70c3d32389cddb4b4946ca01537e018b57d43",
    "csv_train/config.echo": CSV_ECHO,
    "csv_train/hashes.json": HASHES,
    "csv_train/metrics.csv": "9d1606af3f8a32c7f14ad83f32b9f77c756a6040df03d00318b475f633320455",
    "csv_train/reduction.csv": "0c83d89a59daba7f70d1695b3bb980024793efa225df2f3e482896a1112d2091",
    "csv_train/report.json": "57f27aa8e69e53acd8d0234b9102978c8897f385eedb2f340685f4db3cae3f31",
    "csv_train/checkpoint.npz": "4f1a5f2c4874a331bba5db6e2ba825d612b28b490411d142ecaefb6a7a1ef6b6",
    "csv_analyze/config.echo": CSV_ECHO,
    "csv_analyze/corr_matrix.csv": "7b18162ea8c30f5d849b5c2c5e575ab8102e5fc52ceee57c02a11c2837164e90",
    "csv_analyze/redundancy.csv": "9ece649bedd2e3ef465c39b80644e07f5ea1aff42db68c51c202edebe7c871d2",
}


# no BLAS call shapes these bytes: the synthetic table, the hashes, the
# plans and the config echoes
KERNEL_FREE = sorted(
    name
    for name in GOLDEN
    if name.split("/")[0] in ("synth", "hash", "reduce")
    or name.split("/")[1] in ("config.echo", "reduction.csv", "hashes.json")
)


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
