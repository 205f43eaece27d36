"""The package's public names are its modules' public names.

Each name is declared once, in its module's __all__; chaoskit re-exports
those lists, so a name added to a module is public on the package too.
"""

import chaoskit
from chaoskit import chaos, diagnostics, embeddings, functionals, rng, tensors

MODULES = (tensors, chaos, embeddings, functionals, diagnostics, rng)


def test_package_exports_each_module_all():
    expected = ["__version__"]
    for mod in MODULES:
        expected += mod.__all__
    assert chaoskit.__all__ == expected
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(chaoskit, name) is getattr(mod, name), name
    assert isinstance(chaoskit.__version__, str)
