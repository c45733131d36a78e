"""Golden output pins: the exact bytes each command writes.

Every case runs walkhash.cli.main on one fixed command line in a fresh
directory and compares the SHA-256 of stdout and of every report file with
a recorded digest. Any change to a trajectory, key, statistic or report
layout shows up here, so refactors of the pipeline must leave these
digests alone. Re-record only for an intended output change, by running
this file as a script: `PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import walkhash
from walkhash.cli import main

CASES = {
    "walk-fresh": [
        "walk", "--seed", "5", "--n", "300"],
    "walk-fixed-x0": [
        "walk", "--seed", "6", "--n", "300", "--map-mode", "fixed-set",
        "--map-count", "4", "--x0=-40,25"],
    "keygen-sha3": [
        "keygen", "--seed", "42", "--n", "256", "--alg", "sha3-512"],
    "keygen-shake": [
        "keygen", "--seed", "42", "--n", "256", "--alg", "shake256-384"],
    "keygen-blake3": [
        "keygen", "--seed", "42", "--n", "256", "--alg", "blake3-256"],
    "avalanche-reevolve-fixed": [
        "avalanche", "--seed", "3", "--n", "80", "--map-mode", "fixed-set",
        "--map-count", "5", "--mode", "re-evolve", "--nudge=2,-3",
        "--positions", "10,40,70", "--trials", "2",
        "--algs", "sha3-512,shake256-512"],
    "avalanche-nudge-3algs": [
        "avalanche", "--seed", "4", "--n", "80", "--positions", "20,60",
        "--trials", "2"],
    # lane-size walks (n >= walk._LANE_MIN); 3 x 3 trials do not split
    # into groups of equal size
    "avalanche-reevolve-fixed-lanes": [
        "avalanche", "--seed", "8", "--n", "600", "--map-mode", "fixed-set",
        "--map-count", "6", "--mode", "re-evolve", "--nudge=1,1",
        "--positions", "100,333,590", "--trials", "3",
        "--algs", "sha3-512,shake256-512"],
    "avalanche-nudge-lanes": [
        "avalanche", "--seed", "9", "--n", "600", "--positions", "150,451",
        "--trials", "3"],
    # walks longer than one step-table block, whatever its size
    "walk-long": [
        "walk", "--seed", "11", "--n", "20000"],
    "walk-long-fixed": [
        "walk", "--seed", "12", "--n", "20000", "--map-mode", "fixed-set",
        "--map-count", "7"],
    "fractal-long": [
        "fractal", "--seed", "13", "--n-list", "500,5000,20000",
        "--num-seeds", "2"],
    "avalanche-reevolve-long": [
        "avalanche", "--seed", "14", "--n", "9000", "--mode", "re-evolve",
        "--nudge=1,0", "--positions", "10,2100,8500", "--trials", "2",
        "--algs", "sha3-512"],
    "fractal-sweep": [
        "fractal", "--seed", "1", "--n-list", "64,200", "--num-seeds", "2"],
    "fractal-square": [
        "fractal", "--synthetic", "square:16"],
    "fractal-box-sizes": [
        "fractal", "--seed", "2", "--n-list", "100", "--num-seeds", "2",
        "--box-sizes", "1,2,4,8"],
    "fractal-fixed-unsorted": [
        "fractal", "--map-mode", "fixed-set", "--map-count", "5",
        "--n-list", "300,40,300,90", "--num-seeds", "3",
        "--box-sizes", "1,2,4,8"],
}

# case -> {"stdout" or report file name: SHA-256 hex}
PINS = {
    "avalanche-nudge-3algs": {
        "bitmatrix_blake3-256.bin":
            "6bc66c7d73dd3055ff7f79be4141c8a6fd28241c05faa71c32a422d80ce90512",
        "bitmatrix_sha3-512.bin":
            "f6fc658735213c32bb0c6e0588c14e9b34ba98a09fe254ceb026d7916e436580",
        "bitmatrix_shake256-512.bin":
            "f2040963ddaf7b70113bc613c634ce65acd2f992dd6d0ed2d4195bfdb0a47107",
        "stdout":
            "91611a6878b0fb9babd7f1bae6e8e06796b999992f3f1aa830c899a768ae7338",
        "summary.json":
            "17a1ad8248020aab32cc759fae29e7392366c37c2549df2eb986e6ea6ed32572",
        "trials_blake3-256.csv":
            "90e0793c5adc7181feb0a4fe26a0cb49b1d200ccf05e451064093dcf09e75c89",
        "trials_sha3-512.csv":
            "cd7ce2316a9e69373c770eb19db6e32745b1f489e858e4b06935c1a1f46c3386",
        "trials_shake256-512.csv":
            "d7e71a6adb6c9eeef4891ce54121137b36e9fd4e452f715364d8f50af19f3b10",
    },
    "avalanche-reevolve-fixed": {
        "bitmatrix_sha3-512.bin":
            "456522c7d2be67bb29d267929f2a847ffe4a0d6876943d37851086ace5825b9d",
        "bitmatrix_shake256-512.bin":
            "9e27dc8f615b3963d0882c9cc4d7e8f1261c1aa76ee8df3874808f2288212206",
        "stdout":
            "259f819e8c95a57fbbe914cbddc73d70a6bb7922f22a5870c3e39b3e16084120",
        "summary.json":
            "7080197645ec4bc43ab17e35717d6af443745090c150d891b21c5db10e7795ae",
        "trials_sha3-512.csv":
            "1660349c2f889068a03a34e11a53001e9e88e3635159a82350ab1f795c12c39e",
        "trials_shake256-512.csv":
            "00152fd602191c4e9cf905f394084eeb4939fb460b5a06d704a2d1349473f350",
    },
    "avalanche-nudge-lanes": {
        "bitmatrix_blake3-256.bin":
            "d890e9ee9a23ab9f1b82324209e1671e13a233950c2681aac9a339325176c433",
        "bitmatrix_sha3-512.bin":
            "60c9b637a813c407e85ff775082acfb35283872191ce7bda319c3ffe72c16733",
        "bitmatrix_shake256-512.bin":
            "b394b1d9233ace6bc9973c2d53feff0fb44f2e8ba4f1912506725088cab52fa2",
        "stdout":
            "b78eb8dab7966a5369ae2ffd597a5a75dab9bfe77264f30fb460de544eeb86ab",
        "summary.json":
            "a830b11c3bdbb4f55736543f649b68c6c4db317932efe8b6f241ade7fc6f9d06",
        "trials_blake3-256.csv":
            "d5d18b88226d27fa8ba8c7a2fdf6510b9e28aef752885f14739a86724ac30cf8",
        "trials_sha3-512.csv":
            "37eaec4a8351c853742a6f6cb966638b4218b41aa51757d17278e8ac6d7aec02",
        "trials_shake256-512.csv":
            "4ca0598c7de5b1324653f61c33165ee65bc3ab468681c30036e3fca0d051b703",
    },
    "avalanche-reevolve-fixed-lanes": {
        "bitmatrix_sha3-512.bin":
            "aa4b613f7ce261978aa7fc1b9d8cb73795b3af48ae44291ac90524642821d19e",
        "bitmatrix_shake256-512.bin":
            "4af183c23289e194e0cba335d0e89813b8dd8e3a1da1995058b5155333e9d410",
        "stdout":
            "8fead09ddcf2dccb7e802825a3913b24d2c014fe59c566ae653973f8f829664c",
        "summary.json":
            "f9c2eda2d5468ae604f54b479fde64e6d964ef30ae8ce4a5003c85c61166cc13",
        "trials_sha3-512.csv":
            "736f2f3b57c1967e8de246417c8db2aa64f678f4e71947daaf48ecb8085ddb27",
        "trials_shake256-512.csv":
            "17ba11637c6785479e4b91a2df56ec88c306ec9d94d19123eae02076868d0eb0",
    },
    "avalanche-reevolve-long": {
        "bitmatrix_sha3-512.bin":
            "2a18eae9293ddacf10ce4c9c54d8e2cff99dbe216a35cb40bd5b739d75e89a5f",
        "stdout":
            "03ade5e0c673be3b7414b9c2592628f6af7dea71716dae50263a285d4df462ad",
        "summary.json":
            "69814b0672100a43fbfed085771929973c2952b75728cb0f9c507c35ff421d65",
        "trials_sha3-512.csv":
            "ce17229b7bb0afc4b69b27beb8f426a463e107c0f29f09275a614c7f1a02dec4",
    },
    "fractal-long": {
        "fractal.json":
            "082c393e317e7924cdf233979a6afca92bb7602595cab3f7849f46262d436d6b",
        "stdout":
            "e8edb5861fafff6963ecaba2e2a23e8f1588255f2912dc9252ba00c90e35c2a9",
    },
    "fractal-box-sizes": {
        "fractal.json":
            "601fffafa0b1a2462d6335b7227fb2d10ace8bf95aa57f90f65f963e4771d53e",
        "stdout":
            "b72b6015903d935a92f045482d6af8aae18dee587358a28d4e7b3bd361a80098",
    },
    "fractal-fixed-unsorted": {
        "fractal.json":
            "aab32f96053bc0741269d1c61997737b65abc4fc508413095d12d78c2afb37ce",
        "stdout":
            "7f184a15bac4aef11bcbf1f5c9e89622a52525f26b4c07822756cde01179a955",
    },
    "fractal-square": {
        "fractal.json":
            "58669826572822a6dd38971a6f096682155d50133cb6d44c1f653aa5d8feb8b0",
        "stdout":
            "3e41134ca7095aeb9b5d6bea19f262ac9c89b51713677da895907b0fbc029b6b",
    },
    "fractal-sweep": {
        "fractal.json":
            "4132c7adba2de3072bde552cb4d4c497d78eeffbe4928af66b456149692d53a6",
        "stdout":
            "ed20c616688dd1ace61f01a5df4fa5d12926a3a30bde66975237d8b2bd30f408",
    },
    "keygen-blake3": {
        "key.json":
            "eb19eafd3b45127ce9fe354a1f671c9396a8fe683209ac0540fcdd9d8cf77fd3",
        "stdout":
            "cdb5babaa1085ed44336674c1db0b7af142b3e932d42994814b7d0eaa7bf7dda",
    },
    "keygen-sha3": {
        "key.json":
            "1e7078a7c1294ebfe57769782033c4bc346e0bff8ea3d48d17f1faee392c5f5b",
        "stdout":
            "65f9d61a222013ec1072d14f447bf9bbd90f19bc11523c763836883df470243d",
    },
    "keygen-shake": {
        "key.json":
            "c42007b40e727dba83b872a56b4f98d1ab11e271b7869312701370ea0104b160",
        "stdout":
            "d74e6394c956f3babed5c4c92b1e6619ba215d46b8d405c56259846881b8f122",
    },
    "walk-long": {
        "geometry.json":
            "7b5ddde72cfd83abd06cbae50fd045259cdf03c4bc5d73d61de1f295580be087",
        "stdout":
            "6f16109a92f343db426b94c2cbf0d4fc44b10a57fc0f6eb0a4afd797d3cc280a",
        "trajectory.csv":
            "5bb638ab9e96ef96c073381a1627a90f9446eae9da8fa8c8db96e7bd03818ece",
    },
    "walk-long-fixed": {
        "geometry.json":
            "b713f6e05a4af367af5439d13887616762cac8b0b532df6bced94e7fb229ca8b",
        "stdout":
            "8d002bbdb8ab8cff2f280973df192f9b625a71ec991f68a7bcdc16b1a9023b11",
        "trajectory.csv":
            "7c8cd61655e2febbbe2019cc1108189b09c37a876bf5e1b85a2bb739263c8311",
    },
    "walk-fixed-x0": {
        "geometry.json":
            "8e45e94c2636c318ca488abfee69a17ab659c8e8ae445fabf729a8980898011f",
        "stdout":
            "32cf6cb287640ee36850ef02093356228543acc1e81bb6c3710bc82bc3f7c7d0",
        "trajectory.csv":
            "75bb84c98cbfc8ecf05646566d40ea3e6e5d9f06ed54dd902501a423f210c640",
    },
    "walk-fresh": {
        "geometry.json":
            "fabf72db33fabdef6d6ff00853c62ccdc1d174d0195f7748a7352b0838f675c0",
        "stdout":
            "7539431da9dfcde468a72ff7da9b202819742551f467f0a4a3ee49beff2aa666",
        "trajectory.csv":
            "9e9ff815626ec8698c0e76a623b3f05d5ac4cae4d31ad9b5798ae0e053de95d9",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(argv, outdir: Path) -> dict[str, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--output-dir", str(outdir)])
    assert code == 0
    got = {"stdout": _sha(out.getvalue().encode())}
    for path in sorted(outdir.iterdir()):
        got[path.name] = _sha(path.read_bytes())
    return got


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    assert _digests(CASES[name], tmp_path) == PINS[name]


def _umath():
    """numpy's C module: numpy._core from numpy 2, numpy.core before."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:
        from numpy.core import _multiarray_umath
    return _multiarray_umath


# Run in a fresh process, where NPY_DISABLE_CPU_FEATURES applies at import:
# check that numpy turned off each feature named, then print every case's
# digests.
_WITHOUT_DISPATCH = """
import json, sys, tempfile
from pathlib import Path
import test_golden
features = test_golden._umath().__cpu_features__
assert [name for name in sys.argv[1:] if features[name]] == []
pins = {}
for name, argv in test_golden.CASES.items():
    with tempfile.TemporaryDirectory() as d:
        pins[name] = test_golden._digests(argv, Path(d))
print(json.dumps(pins))
"""


def test_golden_output_without_numpy_cpu_dispatch():
    # numpy picks a float64 kernel by CPU; with every CPU-specific one
    # turned off (only the baseline build is left) the pins must hold. A
    # feature the CPU lacks is never picked, so it needs no turning off.
    umath = _umath()
    names = [name for name in umath.__cpu_dispatch__
             if umath.__cpu_features__[name]]
    src = Path(walkhash.__file__).resolve().parents[1]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(names),
               PYTHONPATH=os.pathsep.join(
                   [str(src), str(Path(__file__).parent),
                    os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _WITHOUT_DISPATCH, *names],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == PINS


if __name__ == "__main__":
    pins = {}
    for name, argv in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as d:
            pins[name] = _digests(argv, Path(d))
    json.dump(pins, sys.stdout, indent=4, sort_keys=True)
    print()
