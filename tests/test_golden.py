"""Byte-level golden digests of every CLI output.

Each case runs ``cli.main`` in-process and compares the sha256 of what it
wrote (stdout, or the ``--out`` file) and its exit code with the table
below.  The table was recorded before colourings were checked once at the
public boundary, so any change that alters a single output byte fails
here.  The only masked field is the enumeration time that ``verify``
reports.
"""

import hashlib
import json
import re

import pytest

from pentachrome.cli import main

SEED_A = [1, 2, 3, 4, 3, 5, 4, 5, 2, 5, 1, 3, 1, 4, 1, 2, 4, 2, 3, 5]
SEED_B = [1, 2, 3, 4, 5, 3, 5, 4, 5, 2, 4, 1, 2, 1, 3, 1, 2, 3, 4, 5]
INVALID = [1] * 20

SUBGROUPS = (
    "trivial", "C2", "S5", "A5", "A5xC2", "S5xC2",
    "(1 2),+1", "(1 2 3 4 5),+1; id,-1", "(1 2 3),-1",
)
INPUTS = {"seed-A": SEED_A, "seed-B": SEED_B, "invalid": INVALID}
EXPORTS = ("dodecahedron", "compound-A", "compound-B", "colouring")

# verify reports the backtracking time twice: "240 in 0.123s" and "0.123s"
_SECONDS = re.compile(r"\d+\.\d{3}s")


def _cases():
    cases = {"enumerate": ("out", ["enumerate"])}
    for spec in SUBGROUPS:
        cases[f"orbits {spec}"] = ("stdout", ["orbits", "--subgroup", spec])
        cases[f"orbits {spec} --json"] = ("stdout", ["orbits", "--subgroup", spec, "--json"])
    for name in INPUTS:
        cases[f"classify {name}"] = ("stdout", ["classify", "--in", name])
        cases[f"classify {name} --json"] = ("stdout", ["classify", "--in", name, "--json"])
    for what in EXPORTS:
        for fmt in ("off", "json"):
            args = ["export", "--what", what, "--format", fmt]
            if what == "colouring":
                args += ["--in", "seed-A"]
            cases[f"export {what} {fmt}"] = ("out", args)
    cases["verify"] = ("stdout", ["verify"])
    return cases


CASES = _cases()


def run_case(name, tmp_path, capsys):
    """Run one case; return (exit code, the bytes it produced)."""
    source, args = CASES[name]
    for label, colours in INPUTS.items():
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps({"labelling": "canonical-v1", "colours": colours}))
        args = [str(path) if a == label else a for a in args]
    out = tmp_path / "out"
    if source == "out":
        args = args + ["--out", str(out)]
    code = main(args)
    stdout = capsys.readouterr().out
    data = out.read_bytes() if source == "out" else stdout.encode()
    if name == "verify":
        data = _SECONDS.sub("<t>s", data.decode()).encode()
    return code, data


GOLDEN = {
    "classify invalid": (1, "3d222612e60a04d190f2b2d919cf189c3a418839f71894e7b6bd3887aed29724"),
    "classify invalid --json": (1, "ce4c73505e997a670316e162092ba6c2f0a70019a97a98c8df67f51c6308db2e"),
    "classify seed-A": (0, "cd5bd53a23ba1d8d7d881bddd3130f70dd8663444b7237305d100c4557188ffb"),
    "classify seed-A --json": (0, "2b60b2bc5fef800c972b05d3a2e776600084808e3622ecc8d183d5fbe0519f61"),
    "classify seed-B": (0, "f89cb962244670b0eb87f52434be12c7fbd4cbcce5fe4fa3cf364e4f611cf682"),
    "classify seed-B --json": (0, "714d7d19dbf3c59b23445a05fab21f781f13882bd73fb7eadcb0159121dfe424"),
    "enumerate": (0, "34144ff54fc597eb16757c9e273cc4559ca6d34f4faa1fd4d3c7b2dd1fd26c37"),
    "export colouring json": (0, "2148573433fba37dc19231e78c440aca6b682fed699670f6d3188678d0f5776f"),
    "export colouring off": (0, "7039871a243a451b74bf35775aa4d7b779a730d892aa953c9647632c068cc422"),
    "export compound-A json": (0, "d370c76fd9bec2c0b8402786d97d171bcb0d92b0e91bac614610b41cbbcbafe6"),
    "export compound-A off": (0, "295df74be64958eae26165477ca5294f99d9d2dea5d5b64f6dafc46aa3473c96"),
    "export compound-B json": (0, "2c178777fda178ae6d04ed949faef713bebd126c893f008ac752afc4e50c4a6a"),
    "export compound-B off": (0, "06de0041b81860638b6f34a5bf7bb539c6c6a6d6683f0ef44a02e41d4e936a6f"),
    "export dodecahedron json": (0, "7f561849d4cff3901a42a0943d345030188bcfad0c4e7cfd15ff4f655209d953"),
    "export dodecahedron off": (0, "2e3394599d25b5bf3686e5426600dced0ab75b4682c88c0194073ad300e73b39"),
    "orbits (1 2 3 4 5),+1; id,-1": (0, "3bf496595eedd44ea5b7935427b9af4c32b6d115d6c2ddb03b31eeddb9711596"),
    "orbits (1 2 3 4 5),+1; id,-1 --json": (0, "2b4524e588b554187fd5ba845a864aa4d8cec721048944961c3f5700a744060a"),
    "orbits (1 2 3),-1": (0, "ac875f12d3e7b6667a68912c75bfdb1671cf7b3f0199acdcba9609ebc926a800"),
    "orbits (1 2 3),-1 --json": (0, "924434e668fa4851f3a885fcc13b6684c70e04621200161908d83b936e52ea84"),
    "orbits (1 2),+1": (0, "3a5586fc06bfe7b452ec10e29b7ac7311f82ffe04eab822de01150bc7d2e0014"),
    "orbits (1 2),+1 --json": (0, "832ac0d6586d8b8b6091799b0b5a7d4c8e2ff1f8d73efed1a5b1ce6e72183d20"),
    "orbits A5": (0, "6e28fa7696d20702a0e29c4a1637cc54646cf6b0a829ef5e50bdffebafa5c9fc"),
    "orbits A5 --json": (0, "c2d1e867f6b3575bbe327b462a000589b06962bda22ba170c20244c9822b3de5"),
    "orbits A5xC2": (0, "25736bbed159298f88a6ce73adc01207498531627711d9e7425285d429ca2686"),
    "orbits A5xC2 --json": (0, "6fc7bd766926b6fb0a2f5f38307d84934378d14658e9f5cec2f0dbe128d99678"),
    "orbits C2": (0, "25f426311a7db8189027e7cc8cea1454d551f0e3c5a6ad8547e3a3664653a9c8"),
    "orbits C2 --json": (0, "f874c51ad44e1c7aa07c4ac8567a4195fa559b62348c167b32bfc337cfbe2fab"),
    "orbits S5": (0, "25736bbed159298f88a6ce73adc01207498531627711d9e7425285d429ca2686"),
    "orbits S5 --json": (0, "337512b87cce570c633416808584cc7cd92e07b9791eef1d10271d685620f2b3"),
    "orbits S5xC2": (0, "7853dff0264b62e7f8c66e08945afe1b9c962278e0a0259b58660891d33f6d00"),
    "orbits S5xC2 --json": (0, "0b3f7f65083fe91f5df210b09c1fa9cdc018a452c6b6df1a435c1fff4d98e617"),
    "orbits trivial": (0, "97e17b19a876d999a92e98c66ca3064a6164d7ffd1b8208c3b0ef7dc0390f084"),
    "orbits trivial --json": (0, "9af401969dd8bf0b457eb24e645aec982c7fa712d23d1e951eb862e182536599"),
    "verify": (0, "85f9b195e158d5f678b67d058cbafc5a38405bd4cec3c7b3f2cd0541d55073a7"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path, capsys):
    code, data = run_case(name, tmp_path, capsys)
    want_code, want_digest = GOLDEN[name]
    assert code == want_code
    assert hashlib.sha256(data).hexdigest() == want_digest
