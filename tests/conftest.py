"""Test-session setup shared by all test modules."""

import os

# Subprocess tests run with cwd=tmp_path; relative PYTHONPATH entries such as
# ``src`` only resolve from the repository root, so make them absolute.
if os.environ.get("PYTHONPATH"):
    os.environ["PYTHONPATH"] = os.pathsep.join(
        os.path.abspath(entry) if entry else entry
        for entry in os.environ["PYTHONPATH"].split(os.pathsep)
    )
