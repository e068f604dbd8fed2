"""sha256 of the bytes each CLI command writes.

README's CLI commands at a = 5, the a = 20 commands of the benchmark, two
variants (`--complex`, and a mass with the fit made at the given kz) and, at
a = A_MAX = 100, the spectrum, the survival and observables series and a small
density grid.  A change to the CLI's plumbing must leave every one of these
files byte-identical.  The digests hold only where exp and the BLAS products
round as on the recording machine, so the test skips elsewhere; the series
tiles keep their bits under any BLAS thread count.
"""

import hashlib

import pytest

from dirac_revivals.cli import EXIT_OK, main

from conftest import _rounds_like_the_recording

DIGESTS = {
    "spectral --a 5 --mass 0":
        "470557d6f331b8b2c7111539d3ad871f3b2828522b22a5536445b6bdf05f75d3",
    "survival --a 5 --tmin 0 --tmax 444 --samples 120001":
        "929661b464eceb22301749b93390755ec228b9e8eb7714297bb4cd5074ef2871",
    "survival --a 5 --tmin 0 --tmax 444 --samples 120001 --complex":
        "18ba77f5a905f2386c773e4fc26285ba78eb03bd06c96215f14346587ac2ae15",
    "timescales --a 5 --ab-ratio 2.04":
        "7aef641d14f474acda39eb366d71c34cb46564ec9a5f7cd77d897d373b4b4d31",
    "density --a 5 --ab-ratio 2.04 --tmax 106 --nt 301 --ns 1201":
        "9493371fabd784f520bf223893452c30d58cb34aec8807a989d9d7b035af24c2",
    "density --a 5 --format json":
        "4bd0579c0540cc717bf4f9e651415b47136e1eb5b034a9453d4e3b779f2f4214",
    "observables --a 5 --ab-ratio 2.04 --samples 2000":
        "17dd5c4108933ded30ad060ec2bb6efcf4144d66444fdee97f73f7b1f17418ff",
    "validate --a 5":
        "c4db0e70259a6c7afadd7ccf963a2843913ba41943670f942c8baabeeb3438f0",
    "survival --a 20 --samples 120001":
        "c33120feb149056fe248d69cbf9ab8d86c862ba6d302736818e29743bc481882",
    "timescales --a 20 --mass 1":
        "3dce94caf1e1238f61ae35f4988ddd471862e4068d5e2276b3eb8ad6e2685bf8",
    "density --a 20 --ab-ratio 2.04 --nt 301 --ns 1201":
        "f6b3e5c552868100a6838f6e9f9ee37196dbb18af8b035a30bbbdeefe435390a",
    "observables --a 20 --ab-ratio 2.04 --samples 20000":
        "620a96c0b2326e13fba96bd2aebab8639dd04577eda78c5df8f330ce2187eea8",
    "survival --a 100 --samples 120001":
        "45eda6e05be2f75ba2608cc0fd7d7d8de28676269db6ea03237d917b5876115e",
    "observables --a 100 --ab-ratio 2.04 --samples 20000":
        "49a4278ca5f6b85288d434157f06650dbb79e6cbb798420945fe7e89c13731df",
    "spectral --a 100":
        "b8db08ec23228a5af1314de51b1539226163d1b8dbcf5b6908a54a81a307ce25",
    # (4, 505) @ (505, ns) density products: at ns = 801 (1.6M multiply-adds)
    # OpenBLAS splits them over threads and their last bits move with the
    # thread count; at ns = 401 (0.8M) they stay on one thread
    "density --a 100 --nt 5 --ns 401":
        "2b2bb712ef6e1143a5ecc011d916fd393909572760e137ab12224c6d091a61ca",
}


@pytest.mark.skipif(not _rounds_like_the_recording(),
                    reason="exp or a BLAS product rounds unlike the recording machine")
@pytest.mark.parametrize("command", DIGESTS)
def test_output_digest_pinned(tmp_path, command):
    out = tmp_path / "out"
    assert main([*command.split(), "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[command]
