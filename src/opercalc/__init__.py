"""opercalc: exact calculators and brute-force verifiers for HN polygons,
oper numerics, Frobenius pushforward slope bounds and filtration
optimization.  All arithmetic is exact rational; no floats anywhere.

The public names below are loaded on first access (PEP 562), so
``import opercalc`` imports no submodule and a process pays only for the
modules it uses.  ``from opercalc import X``, ``opercalc.X`` and
``from opercalc import *`` work as with eager imports.
"""

from importlib import import_module as _import_module

# Public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "bundles": (
            "BundleNumerics",
            "CurveParams",
            "OperShape",
            "oper_quotient_degrees",
        ),
        "core": (
            "HNPolygon",
            "PosetDescription",
            "polygon_from_quotient_data",
            "shatz_leq",
            "strata_poset",
        ),
        "enumeration": (
            "MaximalityReport",
            "enumerate_admissible",
            "enumerate_admissible_slow",
            "verify_oper_maximality",
        ),
        "filtrations": (
            "FiltrationProfile",
            "key_inequality_check",
            "max_score_brute_force",
            "max_score_closed_form",
            "oper_subbundle_slope_bound",
            "profile_score",
            "rearrangement_check",
            "sun_bound",
        ),
        "frobenius": (
            "ExpectedDimensions",
            "MaxDegreeCertificate",
            "QuotCertificate",
            "QuotProblem",
            "expected_dimensions",
            "frobenius_oper_consistency",
            "hirschowitz_bound",
            "maxdegree_certificate",
            "pushforward_numerics",
            "quot_dim_lower_bound",
            "quot_nonempty",
            "worst_case_subbundle_slope_bound",
        ),
        "opers": (
            "oper_polygon",
            "oper_space_dimensions",
            "threshold_C",
        ),
    }.items()
    for name in names
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = sorted([*_EXPORTS, *_SUBMODULES])


def __getattr__(name: str) -> object:
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
