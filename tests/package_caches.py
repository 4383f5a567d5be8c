"""Test helper: empty every module-level cache of the package, as the benchmark does per pass."""

import importlib
import pkgutil

import susypainleve


def clear_package_caches():
    """cache_clear() on every module-level cache of the package (seed nodes, Kummer rows, ...)."""
    modules = [susypainleve] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(susypainleve.__path__, "susypainleve.")
    ]
    for module in modules:
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
