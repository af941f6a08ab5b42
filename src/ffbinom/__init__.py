"""Differential and boomerang analysis of the binomials x^r * (1 + u*chi(x))
over odd-characteristic finite fields."""

from .boom import BijklCounts, BoomSpectrum, beta_ab, beta_profile, beta_row, bijkl_counts, boom_spectrum
from .charsum import CharSumResult, gamma, lambda_sum, weil_envelope
from .diff import (
    CollisionReport,
    DiffSpectrum,
    DijCounts,
    LocallyApnReport,
    d00_condition,
    delta_ab,
    delta_row,
    diff_spectrum,
    dij_counts,
    locally_apn_check,
    row_report,
)
from .family import (
    BinomialSpec,
    ExponentFamily,
    cm_equiv_partner,
    eval_table,
    evaluate,
    find_table1,
    reduce_exponent,
    table1_exponents,
)
from .gf import Elt, FieldSpec, is_prime, make_field, prime_power
from .predict import (
    THEOREMS,
    DuPrediction,
    VerifyReport,
    fields_for,
    predict_bs_f2,
    predict_ds_f3,
    predict_ds_f3inv,
    predict_du,
    verify,
)
from .scan import ScanResult, orbit, scan_exponents, write_jsonl

__version__ = "0.1.0"
