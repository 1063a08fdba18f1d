import json
import os
import sys

import pytest
from hypothesis import settings

# allow running pytest from a fresh checkout without installing
sys.path.insert(0, os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src")))

# Property tests run exact and extended-precision eliminations that take
# milliseconds each; on a loaded machine a per-example deadline only flakes.
settings.register_profile("siac", deadline=None)
settings.load_profile("siac")


@pytest.fixture(scope="session")
def verify_run(tmp_path_factory):
    """(exit code, JSON summary) of one `siac verify --out` run, shared by every test that reads it."""
    from siac.harness import cli

    out = tmp_path_factory.mktemp("verify") / "verify.json"
    code = cli.main(["verify", "--out", str(out)])
    return code, json.loads(out.read_text())
