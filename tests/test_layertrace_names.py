"""Every name perfbench/layertrace.py wraps resolves in satmeter.

``layertrace.install`` looks each one up (``vars(cls)[meth]`` for a method,
``getattr(module, attr)`` otherwise), so a rename would break traced
benchmark runs.  The names are only resolved here, never wrapped: ``install``
patches the modules for the rest of the process.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_resolve():
    lt = _layertrace()
    for mod_name, attr, _metric in lt.SPANS:
        mod = importlib.import_module(mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert callable(vars(getattr(mod, cls_name)).get(meth)), attr
        else:
            assert callable(getattr(mod, attr, None)), f"{mod_name}.{attr}"
    metering = importlib.import_module("satmeter.metering")
    for attr in lt.METER_CALLS:
        assert callable(getattr(metering, attr, None)), attr
