"""Golden artifacts: the sha256 of the bytes each CLI invocation writes.

A change to argument handling, config merging or dispatch must leave
every byte alone. The float columns come from numpy's exp/cos/sqrt, so a
numpy build with different SIMD kernels may legitimately produce other
last digits.
"""

import hashlib
import json

import pytest

from qeraser import cli

CUSTOM_SCREEN = [
    "--preset", "custom", "--d", "1", "--wavelength", "0.5", "--L", "100",
    "--x-min", "-100", "--x-max", "100", "--bins", "128",
]

# name -> (argv, config file contents or None, sha256 of the artifact)
CASES = {
    "nchannel-csv": (
        ["nchannel", "--n", "10", "--condition", "dplus", "--format", "csv"], None,
        "c9faab83af0b2ec1ed045fbfc56ae8f4c3e7c8daa218ab4569771ffa2a661966",
    ),
    "nchannel-json": (
        ["nchannel", "--n", "6", "--condition", "dminus", "--theta", "0.37",
         "--format", "json"], None,
        "323dde25ec6dd845eb3ceff10080a55b3580bbd70a320dc2beec35529088d664",
    ),
    "nchannel-svg": (
        ["nchannel", "--n", "10", "--bare", "--format", "svg"], None,
        "dda1f1cb3175aa5c6c923251f82049542462ea78a25a4bf2dfd4797c0e4ed6bb",
    ),
    "nchannel-custom-phases": (
        ["nchannel", "--preset", "custom", "--thetas", "0,0,0,0,0,0",
         "--phis", "1.0471975511965976,2.0943951023931953,3.141592653589793,"
         "4.1887902047863905,5.235987755982989,6.283185307179586",
         "--condition", "d2", "--format", "csv"], None,
        "142915a017f613cbdccff622a59f04efdee9ec2825a95426811a1cc2ab935090",
    ),
    "twoslit-csv": (
        ["twoslit", "--theta", "0", "--sign", "plus", "--format", "csv"], None,
        "934178292e5ecf83b8a9ba32bc753c6e666c47279832dbd9660499e38cf738d9",
    ),
    "twoslit-json": (
        ["twoslit", "--theta", "0.25", "--sign", "minus", "--format", "json"], None,
        "6a5d233b3520b33add18b4f95a17e34f476f98db518ece39dc4da06f481ff6b6",
    ),
    "twoslit-svg": (
        ["twoslit", "--kind", "bare", "--format", "svg"], None,
        "7614049868fa0e53f411f7a67d8cc422a8b10d9b51375ec96d7e14b5ac776389",
    ),
    "twoslit-washed-csv": (
        ["twoslit", "--kind", "washed", "--format", "csv"], None,
        "079cd01fff5bc2b11e95be5af565365c27baf65a1b2c69075c285b94e025a7e5",
    ),
    "twoslit-custom-gaussian": (
        ["twoslit", *CUSTOM_SCREEN, "--envelope", "gaussian", "--sigma", "40",
         "--theta", "0.3", "--sign", "minus", "--format", "csv"], None,
        "1cc432c1ef04f48081ae540d6b64e86fdbe8844535311878722b2b043d68538f",
    ),
    "epr-csv": (
        ["epr", "--basis1", "x", "--basis2", "x", "--format", "csv"], None,
        "4ed893253e20de1a31c2654f45b529e492c416480fb97aed1aaf976a86569dd8",
    ),
    "epr-json": (
        ["epr", "--basis1", "z", "--basis2", "x", "--format", "json"], None,
        "a0fe12b495a29569c02807ea7d88de465819ccfa5a56b7d8b9848d15b28a62d9",
    ),
    "config-flag-override": (
        ["nchannel", "--n", "6"],
        {"kind": "nchannel", "parameters": {"n": 4, "condition": "dminus"}, "output": "json"},
        "c244591c01003f580a55502918ff8680aae1e8b544a3ad0b4c3b07fbf99aadff",
    ),
    "config-integer-theta": (
        ["twoslit"],
        {"kind": "twoslit", "parameters": {"theta": 0, "sign": "minus"}, "output": "csv"},
        "cd2a2b99a4f4002e81f1c88458901c32adba7846a755521049b121a921681efb",
    ),
    "config-sample-phase-lists": (
        ["sample", "--count", "300"],
        {"kind": "sample", "parameters": {
            "preset": "custom", "thetas": [0, 0, 0, 0],
            "phis": [0, 1.5707963267948966, 3.141592653589793, 4.71238898038469],
            "theta": 1, "seed": 11}},
        "19b48cf7f29f0b34e004805720b32f033a468b349e28505a35d1d3114fb0c5ca",
    ),
}
# sample in every scenario and both orders: scenario-order -> sha256
SAMPLE_SHA256 = {
    "epr-marker_first": "f05d25a048c466eadda8b5143fcc02b2e77cfc2aa30dfd3c1629ebbf8c8fa880",
    "epr-system_first": "9fc3821d6743187a950ad805cfb5ba9cb3de3a160676423a7c6a979a7f00d22c",
    "nchannel-marker_first": "cca16564cb9e1e0dfbb4f18b4f796a78d38697f9b4792629816266ea86ca57f2",
    "nchannel-system_first": "40faffd74627bc9709646845605199aa7fc6686745d8dd7011e6920a567fe232",
    "twoslit-marker_first": "ef094bc30348fba33dd6e8875f59ec3e8aab91707e3d25d68062ad0699b0aa2e",
    "twoslit-system_first": "2d352df3bc97dd9349263873da41a573e7132ca81945f26498e6385f1807d715",
}
for _scenario, _extra in (("nchannel", ["--n", "6"]), ("twoslit", []), ("epr", [])):
    for _order in ("marker_first", "system_first"):
        CASES[f"sample-{_scenario}-{_order}"] = (
            ["sample", "--scenario", _scenario, *_extra, "--order", _order,
             "--basis", "erasure" if _order == "system_first" else "whichpath",
             "--theta", "0.4", "--count", "400", "--seed", "1234"],
            None,
            SAMPLE_SHA256[f"{_scenario}-{_order}"],
        )

CHECK_STDOUT_SHA256 = "4c0db6ace7879b3101d65706fbd4a8608b7e184dd99d9bfc465ebbfd587b6799"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artifact_hash(name, tmp_path, capsys) -> str:
    argv, config, _ = CASES[name]
    argv = list(argv)
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    out = tmp_path / "artifact"
    assert cli.main(argv + ["--output", str(out)]) == 0, capsys.readouterr().err
    return _sha256(out.read_bytes())


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifact_bytes_unchanged(name, tmp_path, capsys):
    assert artifact_hash(name, tmp_path, capsys) == CASES[name][2]


def test_check_stdout_unchanged(capsys):
    assert cli.main(["check"]) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == CHECK_STDOUT_SHA256
