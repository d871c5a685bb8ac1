import numpy as np
import pytest

_OUTCOMES = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(number, title): numbered acceptance criterion, reported "
        "as one pass/fail line at the end of the run",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    number, title = marker.args
    if report.when == "call":
        _OUTCOMES[number] = (title, report.passed)
    elif report.failed:  # setup or teardown error
        _OUTCOMES[number] = (title, False)


def pytest_terminal_summary(terminalreporter):
    if not _OUTCOMES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_OUTCOMES):
        title, passed = _OUTCOMES[number]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d}: {status}  {title}")


@pytest.fixture(params=["tall", "wide", "square", "rank_deficient", "zero"])
def kernel_factor(request):
    """A factor F (nM x r) of a kernel F F': r < nM, r >= nM, rank-deficient, all zero."""
    rng = np.random.default_rng(17)
    if request.param == "tall":
        return rng.standard_normal((12, 3))
    if request.param == "wide":
        return rng.standard_normal((4, 7))
    if request.param == "square":
        return rng.standard_normal((5, 5))
    if request.param == "rank_deficient":
        f = rng.standard_normal((10, 3))
        f[:, 2] = f[:, 0] - 2.0 * f[:, 1]
        return f
    return np.zeros((6, 2))
