"""sha256 of the bytes each CLI command writes.

README's CLI commands at a = 5, the a = 20 commands of the benchmark and two
variants (`--complex`, and a mass with the fit made at the given kz).  A change
to the CLI's plumbing must leave every one of these files byte-identical.  The
digests hold only where exp and the BLAS products round as on the recording
machine, so the test skips elsewhere.
"""

import hashlib

import pytest

from dirac_revivals.cli import EXIT_OK, main

from conftest import _rounds_like_the_recording

DIGESTS = {
    "spectral --a 5 --mass 0":
        "470557d6f331b8b2c7111539d3ad871f3b2828522b22a5536445b6bdf05f75d3",
    "survival --a 5 --tmin 0 --tmax 444 --samples 120001":
        "3ad4cb01e59db08c23bf3f5bdb671b04a98796f629ff0f3d3c3d4846f0a6af02",
    "survival --a 5 --tmin 0 --tmax 444 --samples 120001 --complex":
        "5d554f4018cb696a4ae0dfdf2f41c78d9f2b7cf06fe998763e876b153b5f37fb",
    "timescales --a 5 --ab-ratio 2.04":
        "7aef641d14f474acda39eb366d71c34cb46564ec9a5f7cd77d897d373b4b4d31",
    "density --a 5 --ab-ratio 2.04 --tmax 106 --nt 301 --ns 1201":
        "9493371fabd784f520bf223893452c30d58cb34aec8807a989d9d7b035af24c2",
    "density --a 5 --format json":
        "4bd0579c0540cc717bf4f9e651415b47136e1eb5b034a9453d4e3b779f2f4214",
    "observables --a 5 --ab-ratio 2.04 --samples 2000":
        "2fc26717e5fac7a94a86651731299855fe83d5a3e71271240924f655cc411e5e",
    "validate --a 5":
        "2645b636787fa4e9c5635253565750644fc61b6b0207804943a0e63941306a36",
    "survival --a 20 --samples 120001":
        "c652737cb780641c01dee47774f831742eb38709f8fe4ebc64b0db55f5e6479c",
    "timescales --a 20 --mass 1":
        "3dce94caf1e1238f61ae35f4988ddd471862e4068d5e2276b3eb8ad6e2685bf8",
    "density --a 20 --ab-ratio 2.04 --nt 301 --ns 1201":
        "f6b3e5c552868100a6838f6e9f9ee37196dbb18af8b035a30bbbdeefe435390a",
    "observables --a 20 --ab-ratio 2.04 --samples 20000":
        "7829ef348922468a11e00e0ecdae2535ea8081c2c5e4b903fa9c49545342fc68",
}


@pytest.mark.skipif(not _rounds_like_the_recording(),
                    reason="exp or a BLAS product rounds unlike the recording machine")
@pytest.mark.parametrize("command", DIGESTS)
def test_output_digest_pinned(tmp_path, command):
    out = tmp_path / "out"
    assert main([*command.split(), "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[command]
