"""pytest imports `sincoord` from the `src` of the checkout it runs in
(`pythonpath` in pyproject.toml outranks PYTHONPATH); the header names the
tree under test.  `empty_caches` is shared by the tests that need a cold
start."""

import sys

import sincoord


def pytest_report_header(config):
    return f"sincoord: {sincoord.__file__}"


def empty_caches():
    """Empty every lru_cache in the package, as a new process starts."""
    for name, module in list(sys.modules.items()):
        if name == "sincoord" or name.startswith("sincoord."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
