"""The package namespace: every public name resolves through its layer, which
loads on first use, to the same object as before the layers loaded lazily."""

import importlib
import os
import pickle
import subprocess
import sys

import pytest

import critorbit
from critorbit import Residue

# the names critorbit exported when it imported every layer eagerly
PUBLIC = {
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
NAMES = [(layer, name) for layer, names in PUBLIC.items() for name in names.split()]


@pytest.mark.parametrize("layer,name", NAMES)
def test_every_public_name_is_its_layers_object(layer, name):
    defined = getattr(importlib.import_module(f"critorbit.{layer}"), name)
    namespace = {}
    exec(f"from critorbit import {name}", namespace)
    assert namespace[name] is defined
    assert getattr(critorbit, name) is defined


def test_dir_and_all_list_every_public_name():
    names = {name for _, name in NAMES}
    assert names <= set(dir(critorbit))
    assert set(PUBLIC) <= set(dir(critorbit))
    assert sorted(critorbit.__all__) == sorted(names)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'critorbit' has no attribute 'no_such'"):
        critorbit.no_such  # noqa: B018
    with pytest.raises(ImportError):
        exec("from critorbit import no_such", {})


def test_a_pickled_residue_loads_where_only_the_package_was_imported():
    # unpickling finds the class by critorbit.arith, which no code has touched
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import pickle, critorbit; "
            "print(repr(pickle.loads(bytes.fromhex(sys.argv[2]))))")
    blob = pickle.dumps(Residue(5, 1, 2)).hex()
    proc = subprocess.run([sys.executable, "-S", "-c", code, src, blob],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"{Residue(5, 1, 2)!r}\n"
