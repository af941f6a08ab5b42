"""Closed-form spectrum predictors and the prediction-vs-oracle verifier."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from . import boom, charsum, diff, family
from .errors import HypothesisUnverifiedError, NotApplicableError, WrongResidueError
from .family import BinomialSpec
from .gf import FieldSpec, make_field, prime_power

THEOREMS = ("du", "ds-f3", "ds-f3inv", "bs-f2", "cm-equiv")

_OUTSIDE_HYPOTHESIS = "outside theorem hypothesis (q = 11); formulas still reproduce the row"


@dataclass
class DuPrediction:
    delta: int
    locally_apn_star: bool


@dataclass
class VerifyReport:
    """Exact comparison of a closed-form prediction against the brute oracle."""

    theorem: str
    p: int
    n: int
    q: int
    predicted: dict
    oracle: dict
    match: bool
    char_sum: int | None = None
    first_mismatch: tuple | None = None
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "p": self.p,
            "n": self.n,
            "q": self.q,
            "char_sum": self.char_sum,
            "predicted": _jsonable(self.predicted),
            "oracle": _jsonable(self.oracle),
            "match": self.match,
            "first_mismatch": list(self.first_mismatch) if self.first_mismatch else None,
            "note": self.note,
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    return obj


def predict_du(field: FieldSpec, r: int) -> DuPrediction:
    """Differential uniformity (q+1)/4 with delta(1, b) <= 2 off b = 0.

    Valid when r is one of the special exponents for this field, or when the
    S00 collision condition is verified directly together with gcd(r, q-1)
    dividing 2.
    """
    q = field.q
    if family.find_table1(field, r) is None:
        if q % 4 != 3:
            raise HypothesisUnverifiedError(f"q = {q} is not 3 mod 4")
        if math.gcd(r, q - 1) not in (1, 2):
            raise HypothesisUnverifiedError(f"gcd(r, q-1) = {math.gcd(r, q - 1)} does not divide 2")
        if not diff.d00_condition(field, r).holds:
            raise HypothesisUnverifiedError("S00 collision condition fails")
    return DuPrediction(delta=(q + 1) // 4, locally_apn_star=True)


def predict_ds_f3(field: FieldSpec) -> diff.DiffSpectrum:
    """Differential spectrum of the cube binomial from the Gamma sum."""
    q = field.q
    if q % 12 != 11:
        raise WrongResidueError(f"q = {q} is not 11 mod 12")
    g = charsum.gamma(field).value
    omega = {
        0: (3 * (q - 3) - 4 * g) // 8,
        1: (q + 1 + 2 * g) // 2,
        2: (q - 3 - 4 * g) // 8,
        (q + 1) // 4: 1,
    }
    assert (3 * (q - 3) - 4 * g) % 8 == 0 and (q - 3 - 4 * g) % 8 == 0
    omega = {i: c for i, c in omega.items() if c}
    return diff.DiffSpectrum(omega, (q + 1) // 4)


def predict_ds_f3inv(field: FieldSpec) -> diff.DiffSpectrum:
    """Differential spectrum of the inverse-cube binomial; no character sum
    survives in the closed form."""
    q = field.q
    if q % 12 != 11:
        raise WrongResidueError(f"q = {q} is not 11 mod 12")
    omega = {0: (q - 3) // 2, 1: (q + 5) // 4, 2: (q - 3) // 4, (q + 1) // 4: 1}
    omega = {i: c for i, c in omega.items() if c}
    return diff.DiffSpectrum(omega, (q + 1) // 4)


def predict_bs_f2(field: FieldSpec) -> boom.BoomSpectrum:
    """Boomerang spectrum of the square binomial over F_{3^n} from Lambda."""
    q = field.q
    if field.p != 3 or field.n % 2 == 0 or field.n < 3:
        raise NotApplicableError("requires p = 3 and odd n >= 3")
    lam = charsum.lambda_sum(field).value
    assert (q + 1 - 2 * lam) % 4 == 0
    nu = {0: (3 * q - 5 + 2 * lam) // 4, 1: (q + 1 - 2 * lam) // 4}
    nu = {i: c for i, c in nu.items() if c}
    return boom.BoomSpectrum(nu, max(nu))


def _compare(predicted: dict[int, int], oracle: dict[int, int]) -> tuple[bool, tuple | None]:
    if predicted == oracle:
        return True, None
    for i in sorted(set(predicted) | set(oracle)):
        if predicted.get(i, 0) != oracle.get(i, 0):
            return False, (i, predicted.get(i, 0), oracle.get(i, 0))
    return False, None


def verify(field: FieldSpec, theorem: str, r: int | None = None) -> VerifyReport:
    """Run the predictor and the brute oracle for one theorem on one field."""
    p, n, q = field.p, field.n, field.q
    if theorem == "ds-f3":
        pred = predict_ds_f3(field)
        orc = diff.diff_spectrum(field, BinomialSpec(3, 1))
        match, mism = _compare(pred.omega, orc.omega)
        return VerifyReport(
            theorem, p, n, q,
            {"omega": pred.omega}, {"omega": orc.omega},
            match, char_sum=charsum.gamma(field).value, first_mismatch=mism,
            note=_OUTSIDE_HYPOTHESIS if q == 11 else "",
        )
    if theorem == "ds-f3inv":
        pred = predict_ds_f3inv(field)
        orc = diff.diff_spectrum(field, BinomialSpec((2 * q - 1) // 3, 1))
        match, mism = _compare(pred.omega, orc.omega)
        return VerifyReport(
            theorem, p, n, q,
            {"omega": pred.omega}, {"omega": orc.omega},
            match, first_mismatch=mism,
            note=_OUTSIDE_HYPOTHESIS if q == 11 else "",
        )
    if theorem == "bs-f2":
        pred = predict_bs_f2(field)
        orc = boom.boom_spectrum(field, BinomialSpec(2, 1))
        match, mism = _compare(pred.nu, orc.nu)
        return VerifyReport(
            theorem, p, n, q,
            {"nu": pred.nu}, {"nu": orc.nu},
            match, char_sum=charsum.lambda_sum(field).value, first_mismatch=mism,
        )
    if theorem == "du":
        if r is None:
            raise NotApplicableError("theorem 'du' needs an exponent r")
        pred = predict_du(field, r)
        spectrum = diff.diff_spectrum(field, BinomialSpec(r, 1))
        report = diff.locally_apn_check(field, BinomialSpec(r, 1))
        predicted = {"delta": pred.delta, "locally_apn_star": pred.locally_apn_star}
        oracle = {"delta": spectrum.uniformity, "locally_apn_star": report.star}
        return VerifyReport(theorem, p, n, q, predicted, oracle, predicted == oracle)
    if theorem == "cm-equiv":
        return _verify_cm_equiv(field)
    raise NotApplicableError(f"unknown theorem {theorem!r}")


def _verify_cm_equiv(field: FieldSpec) -> VerifyReport:
    # pointwise linear equivalence for every k, then spectrum transfer to the
    # k = n-1 exponent
    p, n, q = field.p, field.n, field.q
    if p != 3 or n % 2 == 0 or n < 3:
        raise NotApplicableError("requires p = 3 and odd n >= 3")
    pointwise = True
    for k in range(1, n):
        partner = family.cm_equiv_partner(n, k)
        spec_k = BinomialSpec((3**k + 1) // 2, 1)
        spec_partner = BinomialSpec(partner, 1)
        for x in field.elements():
            lx = field.pow(x, 3 ** (n - k))
            if family.evaluate(field, spec_k, lx) != family.evaluate(field, spec_partner, x):
                pointwise = False
                break
        if not pointwise:
            break
    pred = predict_bs_f2(field)
    orc = boom.boom_spectrum(field, BinomialSpec((3 ** (n - 1) + 1) // 2, 1))
    match, mism = _compare(pred.nu, orc.nu)
    return VerifyReport(
        "cm-equiv", p, n, q,
        {"pointwise": True, "nu": pred.nu},
        {"pointwise": pointwise, "nu": orc.nu},
        pointwise and match,
        char_sum=charsum.lambda_sum(field).value,
        first_mismatch=mism,
    )


def fields_for(theorem: str, qmax: int) -> Iterator[FieldSpec]:
    """All fields a theorem applies to with order at most qmax."""
    if theorem in ("ds-f3", "ds-f3inv"):
        for q in range(11, qmax + 1, 12):
            pn = prime_power(q)
            if pn is not None:
                yield make_field(*pn)
    elif theorem in ("bs-f2", "cm-equiv"):
        n = 3
        while 3**n <= qmax:
            yield make_field(3, n)
            n += 2
    elif theorem == "du":
        for q in range(3, qmax + 1, 4):
            pn = prime_power(q)
            if pn is not None:
                yield make_field(*pn)
    else:
        raise NotApplicableError(f"unknown theorem {theorem!r}")
