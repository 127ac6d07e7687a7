"""Skip tests marked `slow` unless PERFBASE_SLOW=1."""

import os

import pytest


def pytest_collection_modifyitems(config, items):
    if os.environ.get("PERFBASE_SLOW") == "1":
        return
    skip = pytest.mark.skip(reason="slow; run with PERFBASE_SLOW=1")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
