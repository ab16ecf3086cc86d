"""SHA-256 of every artifact of each CLI subcommand at fixed arguments.

The hashes pin the byte-exact output of the production paths, so a refactor
that changes a single digit of any artifact fails here.  They were recorded
with numpy 2.4 on x86-64 Linux; a different libm or numpy build may round a
last digit differently, in which case re-record them on a reference commit.
"""

import hashlib
import json

import pytest
from conftest import write_coupling_inputs

from pomtrans import cli

GOLDEN = {
    "spectrum": (["spectrum", "--grid-points", "20001"], {
        "csv": "e694adf2f02f9369c839c420ae01e0c08510e67575e737082f10639f43c54225",
        "json": "50b55a03e8b2b5a269a3384fc6cb9e8a156fbd85df544b03bbefb1e88c0e039f",
    }),
    "contour": (["contour"], {
        "csv": "3fd181a78a0361f9716fb9a3cd89b6c2267c3b3e25b16c5bcd63974898147e5b",
        "json": "f5c497723625960eb03e9936cd0838d6197d037535834947749a1174f871b353",
    }),
    "contour-7x5": (["contour", "--grid-points", "7", "5"], {
        "csv": "092bfc7b35e9fab580b2f449b663d0f8944de0efec97988c5c688c7edc90016c",
        "json": "7b009e45ab373320cf0f93a7acf53f377a3eb54ff450719a8544c384478d6c83",
    }),
    "optimize": (["optimize"], {
        "json": "1fa68508603651bec2fcdd9f95030567c1f73da1f6f5f0984252ee9ffb349f9a",
    }),
    "optimize-5gem-5kex2-10G": (["optimize", "--preset", "5gem-5kex2-10G"], {
        "json": "8b2ff79393661817068761440e844298cff1b0d3b73529419afb83a720769433",
    }),
    "efficiency-curve-pump-offset": (["efficiency-curve", "--pump-offset-hz", "3.2e9"], {
        "csv": "d8814abb8225f9547b6155b5890a3badd21ae7cf692d26a19e94ab69cb5b7d01",
        "json": "d091e6bbba5a6bdb7153a99c18d4aa915bea4785d60c0154c63c293315e88c61",
    }),
    "efficiency-curve": (["efficiency-curve"], {
        "csv": "7c85200bb034adfd7dd85e5d007ba2061199d33b51d92f738a991d48cc8d3570",
        "json": "a16789cfa67dc669a4938e05cd605f812a3aa85f9452931b05e5809b8c37be93",
    }),
    "rings": (["rings"], {
        "csv": "7595534dcea0bbbbc1c791f5489977c4ff08bc4520949ba1ba59b8feedf6f586",
        "json": "6c0c77025f75c42ec214a65ad9cf0502433bce7c2d48be8f39600628d89a3685",
    }),
    "materials-em": (["materials", "--which", "em"], {
        "csv": "42e0db55159a0ef57cec3d051f9cdbbfadc23909dedea0368d3927d1bc4bf67b",
    }),
    "materials-om": (["materials", "--which", "om"], {
        "csv": "e8ccc521b9f388c4d51b6645a5c27fc9e05d395f95e79d9cb84402712390bb96",
    }),
}

# the field and tensor arguments come from write_coupling_inputs; its default pair
# has an x-polarized E, so with only h33 set both piezoelectric rates are exactly 0
COUPLING_333 = (["coupling", "--component", "3", "3", "3"], {
    "json": "fd54478316fc6d289029dd902bf14ac99ffd483773f47516885b2d9f2824ee98",
})
# the same arguments on its piezo pair, a z-polarized E against a quarter period of w_z,
# whose h33 overlap is nonzero, so these bytes pin both piezoelectric rates
COUPLING_333_PIEZO = (COUPLING_333[0], {
    "json": "ef77812cf441502e2b06409f1f6f90d4b540f510ee1267f26770e8de1e92f2fd",
})

# the artifact base each subcommand writes when --out is not given
DEFAULT_BASES = {
    "spectrum": "spectrum",
    "contour-7x5": "contour",
    "optimize": "optimize",
    "efficiency-curve-pump-offset": "efficiency-curve",
    "rings": "rings",
    "materials-em": "materials-em",
    "coupling-333": "coupling",
}


def _argv(name, directory):
    if name == "coupling-333":
        argv, expected = COUPLING_333
        return argv + write_coupling_inputs(directory), expected
    return GOLDEN[name]


def _hashes(paths):
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_bytes_match_golden_hashes(tmp_path, capsys, name):
    argv, expected = GOLDEN[name]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 0
    written = {path.suffix.lstrip("."): path for path in tmp_path.iterdir()}
    assert sorted(written) == sorted(expected)
    for ext, digest in expected.items():
        assert hashlib.sha256(written[ext].read_bytes()).hexdigest() == digest, ext


def test_coupling_component_bytes_match_golden_hash(tmp_path, capsys):
    argv, expected = _argv("coupling-333", tmp_path)
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert _hashes([tmp_path / "out.json"]) == {"out.json": expected["json"]}


def test_nonzero_piezo_rate_bytes_match_golden_hash(tmp_path, capsys):
    argv, expected = COUPLING_333_PIEZO
    argv = argv + write_coupling_inputs(tmp_path, piezo=True)
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert json.loads((tmp_path / "out.json").read_text())["piezo_coupling_rad_s"]["abs"] > 0
    assert _hashes([tmp_path / "out.json"]) == {"out.json": expected["json"]}


@pytest.mark.parametrize("name", sorted(DEFAULT_BASES))
def test_default_out_base_names(tmp_path, monkeypatch, capsys, name):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    argv, expected = _argv(name, inputs)
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    base = DEFAULT_BASES[name]
    names = [f"{base}.{ext}" for ext in sorted(expected)]
    assert capsys.readouterr().out == f"wrote {' and '.join(names)}\n"
    written = [path for path in tmp_path.iterdir() if path.is_file()]
    assert _hashes(written) == {f"{base}.{ext}": digest for ext, digest in expected.items()}
