"""critorbit: arithmetic of the critical orbit of x^d + c.

Orbit structure over residue rings Z/p^t, Gleason polynomials and their
discriminants, Newton lifting of parameters at primitive primes, construction
of integers whose orbit values carry prescribed primitive prime powers, PCF
censuses over F_p, prime-density estimates, and Galois-maximality witness
certificates.

Each layer is a submodule that loads on first use: importing the package
registers every layer in ``sys.modules`` but compiles and runs none, and a
public name such as ``critorbit.gleason_poly`` loads only the layer that
defines it.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# the public names, by the layer that defines them
_LAYERS = {
    "arith": "Factorization Residue crt factorize is_prime moebius next_prime "
             "primes_up_to set_random_seed val_p",
    "bounds": "CertificateEntry MaximalityCertificate count_primitive_primes height "
              "maximality_certificate rho_upper_bound rho_upper_bound_general "
              "verify_certificate",
    "constructor": "ConstraintCheck ConstructionReport DivisibilitySpec "
                   "PrimePowerConstraint build_parameter find_base "
                   "find_prime_for_iterate verify_spec",
    "density": "DensityReport EmpiricalDensity density_lower_bound density_report "
               "empirical_density fpp_symmetric limit_error_bound",
    "errors": "DiscObstructionError HenselHypothesisError InternalConsistencyError "
              "PrimeNotAdmissibleError SearchExhaustedError SizeGuardError "
              "ZeroIterateError",
    "gleason": "IntPoly discriminant discriminant_mod_p gleason_degree "
               "gleason_discriminant gleason_poly has_root_mod_p is_simple_root "
               "iterate_poly resultant roots_mod_p",
    "lifting": "LiftResult adjust_power hensel_lift scan_shifts",
    "orbit": "OrbitClassification PeriodType RationalParam Valuation "
             "classify_integer_param exact_iterate is_primitive_divisor "
             "iterate_valuation multiplier_mod_p orbit_with_derivative "
             "period_type_mod point_period_type_mod",
    "pcf": "PcfCensus check_condition_star check_condition_star_star "
           "condition_star_star_failures correspondence_report enumerate_pcf",
}
_LAYER_OF = {name: layer for layer, names in _LAYERS.items() for name in names.split()}
__all__ = sorted(_LAYER_OF)


def _register(layer: str):
    """The layer's module, in sys.modules, run on its first attribute access.

    The first access must come from one thread at a time: CPython 3.11's
    LazyLoader takes no lock, so a caller that starts threads or a pool loads
    the layers they use first."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


globals().update({layer: _register(layer) for layer in _LAYERS})


def __getattr__(name: str):
    if name in _LAYER_OF:
        return getattr(globals()[_LAYER_OF[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
