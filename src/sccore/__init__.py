"""Exact-arithmetic engine for counting self-conjugate core partitions.

Subpackages by concern: partitions (objects, hooks, oracles), abacus
(beta-sets, core/quotient), series (generating functions), formulas
(recursions and large-t shortcuts), growth (the sc(n-2)/sc(n) audit),
analytics (conjecture scans), cache and cli (persistence and front end).
"""

from .partitions import (
    DiagonalHooks,
    Partition,
    character_degree,
    conjugate,
    diagonal_hooks,
    enumerate_self_conjugate,
    enumerate_self_conjugate_t_core,
    from_diagonal_hooks,
    hook_grid,
    hook_length,
    is_self_conjugate,
    is_t_core,
)
from .abacus import (
    assemble,
    beta_set,
    enumerate_t_cores,
    partition_of,
    quotient_is_self_symmetric,
    remove_hook,
    sc_reduction_step,
    t_core,
    t_quotient,
)
from .series import (
    TruncatedSeries,
    c_t_coeffs,
    nsc_t_coeffs,
    p_coeffs,
    phat_coeffs,
    sc_coeffs,
    sc_t_coeffs,
)

__all__ = [
    "DiagonalHooks",
    "Partition",
    "TruncatedSeries",
    "assemble",
    "beta_set",
    "c_t_coeffs",
    "character_degree",
    "conjugate",
    "diagonal_hooks",
    "enumerate_self_conjugate",
    "enumerate_self_conjugate_t_core",
    "enumerate_t_cores",
    "from_diagonal_hooks",
    "hook_grid",
    "hook_length",
    "is_self_conjugate",
    "is_t_core",
    "nsc_t_coeffs",
    "p_coeffs",
    "partition_of",
    "phat_coeffs",
    "quotient_is_self_symmetric",
    "remove_hook",
    "sc_coeffs",
    "sc_reduction_step",
    "sc_t_coeffs",
    "t_core",
    "t_quotient",
]

__version__ = "0.1.0"
