import tempfile

from hypothesis import configuration


def pytest_configure(config):
    """Keep hypothesis's caches out of the working tree.

    Hypothesis writes them while the test modules are collected, so a
    fixture would be too late.
    """
    config.hypothesis_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    configuration.set_hypothesis_home_dir(config.hypothesis_home.name)


def pytest_unconfigure(config):
    configuration.set_hypothesis_home_dir(None)
    config.hypothesis_home.cleanup()
