"""Call counters on oscnav functions, wherever a module binds them.

A module that imports a function holds its own binding of it, so patching
one module's name misses calls made through another. :func:`patch_everywhere`
replaces every binding of the object in every ``oscnav`` module namespace,
as the benchmark's span tracer does, so a count holds however the library
reaches the function. Each patch is undone with the test's ``monkeypatch``.
"""

from __future__ import annotations

import sys


def patch_everywhere(monkeypatch, module, name, wrap):
    """Replace ``module.name`` by ``wrap(original)`` in every oscnav module
    that binds the same object, under any name; returns the replacement."""
    original = getattr(module, name)
    replacement = wrap(original)
    for key, mod in list(sys.modules.items()):
        if key == "oscnav" or key.startswith("oscnav."):
            for attr, bound in list(vars(mod).items()):
                if bound is original:
                    monkeypatch.setattr(mod, attr, replacement)
    return replacement


def record_calls(monkeypatch, module, name):
    """A list that gets the positional arguments of every call of
    ``module.name``, through whichever binding it is made."""
    calls = []

    def wrap(fn):
        def recording(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)
        return recording

    patch_everywhere(monkeypatch, module, name, wrap)
    return calls
