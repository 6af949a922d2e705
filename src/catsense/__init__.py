"""catsense: displacement-sensing bounds for cat-state probes, with oracle checks.

``import catsense`` loads no submodule: each public name, and each of the
submodules ``bounds``, ``coherent``, ``errors`` and ``fock`` that hold them,
is imported on first access (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

# the public names, by the submodule that defines them
_PUBLIC = {
    "bounds": ("FamilyKind", "curve", "entangled_cat_generator_variance", "entangled_cat_ntot",
               "eps_min_entangled_cat", "eps_min_squeezed_exact", "invert_ntot"),
    "coherent": ("CoherentLabel", "SuperpositionState", "displace", "expect_generator",
                 "make_entangled_cat", "mean_photon_number", "norm_squared", "overlap",
                 "variance_generator"),
    "errors": ("CatsenseError",),
    "fock": ("FockVector", "coherent_vector", "qfi_fidelity_fd", "qfi_pure", "squeezed_vector",
             "to_fock"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import a public name's submodule, or one of those submodules, on first access."""
    if name in _PUBLIC:
        return import_module(f".{name}", __name__)  # the import binds it on the package
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_PUBLIC, *__all__})
