"""What importing the package loads: no module of the network, mail or
process-pool stacks. Each import runs in a fresh interpreter, so what
this test process has already loaded does not hide a regression."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uavsched

# `xml.sax` pulls in urllib.request, and with it http.client, ssl, email
# and socket; concurrent.futures.process pulls in multiprocessing
NEVER_LOADED = ("xml.sax", "urllib.request", "http.client", "ssl", "email",
                "socket", "multiprocessing", "concurrent.futures.process")


def loaded_after(statement: str) -> set[str]:
    """The modules a fresh interpreter holds after `statement`."""
    src = str(Path(uavsched.__file__).parents[1])
    program = f"{statement}\nimport json, sys\nprint(json.dumps([*sys.modules]))"
    out = subprocess.run([sys.executable, "-c", program], capture_output=True,
                         text=True, check=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=src))
    return set(json.loads(out.stdout))


@pytest.mark.parametrize("statement", ["import uavsched, uavsched.gantt",
                                       "import uavsched.cli"])
def test_import_loads_no_network_or_pool_modules(statement):
    assert loaded_after(statement) & set(NEVER_LOADED) == set()
