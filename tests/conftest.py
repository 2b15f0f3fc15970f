import importlib
import sys

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name) wraps owner.name, and the same function in
    every trep module that binds it, and returns the list that collects each
    call's positional arguments; owner is a module name or an object."""

    def install(owner, name):
        if isinstance(owner, str):
            owner = importlib.import_module(owner)
        original = getattr(owner, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        for key, binder in list(sys.modules.items()):
            if key.split(".")[0] == "trep" and getattr(binder, name, None) is original:
                monkeypatch.setattr(binder, name, counted)
        return calls

    return install
