"""Tier-1 runs warning-clean: a warning that a test does not expect with
``pytest.warns`` (or an explicit ``filterwarnings`` mark) fails it."""

from pathlib import Path

import pytest

_HERE = Path(__file__).parent


def pytest_collection_modifyitems(items):
    for item in items:
        if item.path.is_relative_to(_HERE):
            # prepended, so a test's own filterwarnings marks take precedence
            item.add_marker(pytest.mark.filterwarnings("error"), append=False)
