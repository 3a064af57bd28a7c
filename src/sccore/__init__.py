"""Exact-arithmetic engine for counting self-conjugate core partitions.

Subpackages by concern: partitions (objects, hooks, oracles), abacus
(beta-sets, core/quotient), series (generating functions), formulas
(recursions and large-t shortcuts), growth (the sc(n-2)/sc(n) audit),
analytics (conjecture scans), cache and cli (persistence and front end).

Nothing is imported with the package: a submodule, or a name re-exported
below, is imported on first access (`sccore.growth`, `from sccore import
sc_t_coeffs`), so a command loads only the layers it runs.
"""

from importlib import import_module

# re-exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "Partition", "character_degree", "check_hooks", "conjugate", "diagonal_hooks",
        "enumerate_self_conjugate", "from_diagonal_hooks", "hook_grid", "hook_length",
        "is_self_conjugate", "is_t_core",
    ), "partitions"),
    **dict.fromkeys((
        "assemble", "beta_set", "enumerate_t_cores", "partition_of", "quotient_is_self_symmetric",
        "remove_hook", "sc_reduction_step", "t_core", "t_quotient",
    ), "abacus"),
    **dict.fromkeys((
        "c_t_coeffs", "nsc_t_coeffs", "p_coeffs", "phat_coeffs", "sc_coeffs", "sc_t_coeffs",
    ), "series"),
}
_SUBMODULES = ("abacus", "analytics", "cache", "cli", "config", "errors", "formulas", "growth",
               "partitions", "reports", "series")

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
