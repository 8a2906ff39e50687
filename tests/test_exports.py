"""``from fracmv.<module> import *`` raises on a stale ``__all__`` entry, and the
package serves the verify suites' names and the condition audit, loaded on first use."""

import importlib
import pkgutil

import pytest

import fracmv

MODULES = sorted(m.name for m in pkgutil.iter_modules(fracmv.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"fracmv.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_serves_the_verify_names():
    from fracmv import SUITES, CheckResult, ConditionReport, run_suites, verify_conditions
    from fracmv import verify

    assert SUITES is verify.SUITES and CheckResult is verify.CheckResult
    assert run_suites is verify.run_suites
    assert verify_conditions is verify.verify_conditions
    assert ConditionReport is verify.ConditionReport


def test_package_refuses_an_unknown_name():
    with pytest.raises(AttributeError, match="no_such_name"):
        fracmv.no_such_name
