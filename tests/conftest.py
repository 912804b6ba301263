"""The tests import setnet from ``src`` (``pythonpath`` in pyproject.toml), and
so do the ``python -m setnet.cli`` processes they start."""

import os


def pytest_configure(config):
    src = str(config.rootpath / "src")
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if src not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, *paths]))
