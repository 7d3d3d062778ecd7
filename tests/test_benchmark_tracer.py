"""The benchmark's traced run (lgbench/tracing.py) wraps program functions
by name; a renamed or moved one would make that run die.  Installing and
removing its tracer here catches such a change in the unit tests."""

import importlib
import os
import sys

LGBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "lgbench")


def _binding(mods, mod_name, attr):
    owner = mods[mod_name]
    if "." in attr:
        cls_name, meth = attr.split(".")
        return vars(getattr(owner, cls_name))[meth]
    return getattr(owner, attr)


def test_tracer_resolves_every_span_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(LGBENCH)
    try:
        tracing = importlib.import_module("tracing")
    finally:
        sys.modules.pop("tracing", None)
    mods = {m: importlib.import_module("lorentzgas." + m)
            for m in tracing.MODULES}
    field = mods["forced_dynamics"].ForceField
    before = {(m, a): _binding(mods, m, a) for m, a, _ in tracing.SPANS}
    before_call = vars(field)["__call__"]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert set(tracer.spans) == {name for _, _, name in tracing.SPANS}
        for (m, a), orig in before.items():
            assert _binding(mods, m, a).__wrapped__ is orig, (m, a)
        assert vars(field)["__call__"] is not before_call
    finally:
        tracer.uninstall()

    for (m, a), orig in before.items():
        assert _binding(mods, m, a) is orig, (m, a)
    assert vars(field)["__call__"] is before_call
    originals = set(map(id, before.values()))
    for mod in (importlib.import_module("lorentzgas"), *mods.values()):
        for key, val in vars(mod).items():
            assert id(getattr(val, "__wrapped__", None)) not in originals, \
                (mod.__name__, key)
