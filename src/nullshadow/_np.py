"""numpy, loaded at the first attribute read from this module.

The package's only numpy import.  Every other module reads numpy through
``from . import _np as np``, so numpy loads at the first ``np.<name>``
that a function evaluates, and importing the package, ``--version`` or a
run that builds no array never loads it.  Dunder names are not
forwarded: probes such as ``__path__`` or ``__all__`` neither load numpy
nor make this module pass for numpy.
"""


def __getattr__(name):
    if name.startswith("__") and name.endswith("__"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import numpy

    value = globals()[name] = getattr(numpy, name)
    return value
