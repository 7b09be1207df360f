"""pytest imports `sincoord` from the `src` of the checkout it runs in
(`pythonpath` in pyproject.toml outranks PYTHONPATH); the header names the
tree under test."""

import sincoord


def pytest_report_header(config):
    return f"sincoord: {sincoord.__file__}"
