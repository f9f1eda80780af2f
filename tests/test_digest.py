"""The pinned result digest of `tools/digest.py`: one sha256 over the
solver's results and valuations under two policies and the answers of
the dominated-cycle analysis on the 8010 seed-1 benchmark instances.
A change that alters a trajectory on purpose re-pins the digest here and
says why, as it does the counts of the acceptance tests."""

import subprocess
import sys
from pathlib import Path

DIGEST = Path(__file__).resolve().parents[1] / "tools" / "digest.py"

SEED_1 = ("8010 instances, sha256 "
          "393b43df159039e5a6e1ca83ddc937b14de829c688fe21cd5fa5fdb5b807e8d9")


def test_seed1_digest_is_pinned():
    # a process of its own, so that the script's path set-up and the
    # benchmark's modules stay out of this one
    done = subprocess.run([sys.executable, str(DIGEST), "1"],
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == SEED_1
