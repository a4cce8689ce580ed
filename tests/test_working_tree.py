"""A test run writes nothing into the working tree."""


def test_the_benchmark_plugin_is_not_loaded(pytestconfig):
    # pytest-benchmark, where it is installed, makes .benchmarks/ in the
    # current directory on every run, and no test uses it, so pyproject's
    # addopts block it.
    modules = {getattr(p, "__name__", "") for p in pytestconfig.pluginmanager.get_plugins()}
    assert not pytestconfig.pluginmanager.has_plugin("benchmark")
    assert not any(name.startswith("pytest_benchmark") for name in modules)
