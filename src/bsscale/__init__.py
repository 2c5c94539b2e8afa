"""Invariants of totally disconnected completions of Baumslag-Solitar
groups BS(m, n) = <a, t | t a^m t^-1 = a^n>: the word problem, the lazy
conjugate-intersection graph, closed-form scale / modular / flat-rank
values, p-adic local structure reports, and brute-force tree oracles that
cross-check every route.

The public names below load lazily: ``bsscale.scale`` imports
``bsscale.invariants`` on first access, so a process that needs only the
word algebra (such as one CLI command) does not pay for the rest.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "errors": "BudgetError DomainError InvariantError NoPathError NotANodeError"
        " ParseError WordConditionError",
        "params": "GroupParams",
        "words": "Word britton_reduce as_power_of_a conjugacy_normalize"
        " conjugacy_normalize_with_certificate equal_elements format_word free_reduce"
        " invert_word is_freely_reduced is_pinch_free parse_word t_exponent",
        "normal_forms": "BS1nMatrix CosetId ElementNormalForm bs1n_matrix bs1n_normal_form"
        " coset_of coset_word element_normal_form",
        "graph": "OmegaNode TraceGeometry classify_node edges_from nodes_through"
        " shortest_path_len step step_h to_dot trace trace_geometry",
        "invariants": "ModularValue ScaleValue StructureReport flat_rank modular"
        " moller_sequence moller_stabilization orbit_order orbit_order_factorization"
        " pi_kernel scale scale_value_set structure_report",
        "cosets": "CosetTable act enumerate_ball export_dot index_bruteforce orbit_census"
        " orbit_order_bruteforce step_bruteforce",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
