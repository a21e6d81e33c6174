"""Sumset structure toolkit for small-doubling subsets of Z x Z/dZ."""

from .group_core import (CyclicGroup, ModulusMismatch, ResidueSet, Subgroup,
                         coset_of, containing_coset, subgroups)
from .sumset_engine import (IntegerSet, stabilizer, sumset, sumset_int,
                            sumset_int_naive, sumset_naive)
from .classical_checks import (CheckOutcome, check_lev_bound,
                               kneser_decomposition, lemma1_all_differences,
                               prop1_single_coset, prop2_single_coset)
from .hall_bounds import (BoundViolation, HallViolator, IntervalProfile,
                          SdrCertificate, abc_parameters, find_sdr,
                          lemma2_certificate, prop5_bound, r_parameter)
from .rectify import (AffineAssignment, bezout, closure_step, find_seed_pair,
                      good_closure, solve_affine)
from .layered import (ConclusionFailed, LayeredSet, LayeredSetError,
                      LayeredSumset, NotApplicable, StructureWitness,
                      check_ineq7, check_lemma5, check_prop7,
                      corollary1_check, find_structure, flatten_sumset,
                      prop6_lower_bound, uvw_partition)

__version__ = "0.1.0"
