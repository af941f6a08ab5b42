"""Closed-form spectrum predictors and the prediction-vs-oracle verifier."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Iterator

from . import boom, charsum, diff, family
from .errors import HypothesisUnverifiedError, InvariantError, NotApplicableError, WrongResidueError
from .family import BinomialSpec
from .gf import TABLE_LIMIT, FieldSpec, make_field, no_tables, prime_power

_OUTSIDE_HYPOTHESIS = "outside theorem hypothesis (q = 11); formulas still reproduce the row"


@dataclass(slots=True)
class DuPrediction:
    delta: int
    locally_apn_star: bool


@dataclass(slots=True)
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


def _ds_f3(field: FieldSpec) -> tuple[dict, int]:
    # {"omega": ...} of the cube binomial and the Gamma value it comes from;
    # gamma raises WrongResidueError unless q = 11 (mod 12)
    q = field.q
    g = charsum.gamma(field).value
    if (3 * (q - 3) - 4 * g) % 8 or (q - 3 - 4 * g) % 8:
        raise InvariantError(f"Gamma = {g} gives a non-integral omega for q = {q}")
    omega = {
        0: (3 * (q - 3) - 4 * g) // 8,
        1: (q + 1 + 2 * g) // 2,
        2: (q - 3 - 4 * g) // 8,
        (q + 1) // 4: 1,
    }
    return {"omega": {i: c for i, c in omega.items() if c}}, g


def predict_ds_f3(field: FieldSpec) -> diff.DiffSpectrum:
    """Differential spectrum of the cube binomial from the Gamma sum."""
    return diff.DiffSpectrum(_ds_f3(field)[0]["omega"], (field.q + 1) // 4)


def predict_ds_f3inv(field: FieldSpec) -> diff.DiffSpectrum:
    """Differential spectrum of the inverse-cube binomial; no character sum
    survives in the closed form."""
    q = field.q
    if q % 12 != 11:
        raise WrongResidueError(f"q = {q} is not 11 mod 12")
    omega = {0: (q - 3) // 2, 1: (q + 5) // 4, 2: (q - 3) // 4, (q + 1) // 4: 1}
    omega = {i: c for i, c in omega.items() if c}
    return diff.DiffSpectrum(omega, (q + 1) // 4)


def _bs_f2(field: FieldSpec) -> tuple[dict, int]:
    # {"nu": ...} of the square binomial over F_{3^n} and the Lambda value
    # it comes from
    q = field.q
    if field.p != 3 or field.n % 2 == 0 or field.n < 3:
        raise NotApplicableError("requires p = 3 and odd n >= 3")
    lam = charsum.lambda_sum(field).value
    if (q + 1 - 2 * lam) % 4:
        raise InvariantError(f"Lambda = {lam} gives a non-integral nu for q = {q}")
    nu = {0: (3 * q - 5 + 2 * lam) // 4, 1: (q + 1 - 2 * lam) // 4}
    return {"nu": {i: c for i, c in nu.items() if c}}, lam


def predict_bs_f2(field: FieldSpec) -> boom.BoomSpectrum:
    """Boomerang spectrum of the square binomial over F_{3^n} from Lambda."""
    nu = _bs_f2(field)[0]["nu"]
    return boom.BoomSpectrum(nu, max(nu))


def _first_mismatch(predicted: dict[int, int], oracle: dict[int, int]) -> tuple | None:
    for i in sorted(set(predicted) | set(oracle)):
        if predicted.get(i, 0) != oracle.get(i, 0):
            return i, predicted.get(i, 0), oracle.get(i, 0)
    return None


@dataclass(frozen=True)
class _Theorem:
    """One row of the theorem table.

    The theorem applies to the prime powers among first_q, next_q(first_q),
    ...  It is checked on x^r (1 + chi(x)) with r = exponent(field), or with
    the r passed to verify where exponent is None (du); the other theorems
    fix their exponent and refuse an r.  predict gives the predicted dict and
    the character sum behind it, oracle the brute-force dict, spectrum the
    key whose first mismatch is reported, and note the remark on the F_11
    report.  The callables reach library functions through their modules at
    call time, so tracing and monkeypatching, which rebind module
    attributes, see every call.
    """

    first_q: int
    next_q: Callable[[int], int]
    exponent: Callable[[FieldSpec], int] | None
    predict: Callable[[FieldSpec, BinomialSpec], tuple[dict, int | None]]
    oracle: Callable[[FieldSpec, BinomialSpec], dict]
    spectrum: str | None = None
    note: str = ""


def _du_oracle(field: FieldSpec, spec: BinomialSpec) -> dict:
    spectrum, report = diff.row_report(field, spec)
    return {"delta": spectrum.uniformity, "locally_apn_star": report.star}


def _diff_oracle(field: FieldSpec, spec: BinomialSpec) -> dict:
    return {"omega": diff.diff_spectrum(field, spec).omega}


def _boom_oracle(field: FieldSpec, spec: BinomialSpec) -> dict:
    return {"nu": boom.boom_spectrum(field, spec).nu}


def _cm_equiv_predict(field: FieldSpec, spec: BinomialSpec) -> tuple[dict, int]:
    predicted, lam = _bs_f2(field)
    return {"pointwise": True, **predicted}, lam


def _cm_equiv_oracle(field: FieldSpec, spec: BinomialSpec) -> dict:
    # pointwise linear equivalence for every k, then spectrum transfer to the
    # k = n-1 exponent
    n = field.n
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
    return {"pointwise": pointwise, **_boom_oracle(field, spec)}


_TABLE = {
    "du": _Theorem(
        3, lambda q: q + 4, None,
        lambda f, spec: (asdict(predict_du(f, spec.r)), None),
        _du_oracle,
    ),
    "ds-f3": _Theorem(
        11, lambda q: q + 12, lambda f: 3,
        lambda f, spec: _ds_f3(f),
        _diff_oracle, "omega", _OUTSIDE_HYPOTHESIS,
    ),
    "ds-f3inv": _Theorem(
        11, lambda q: q + 12, lambda f: (2 * f.q - 1) // 3,
        lambda f, spec: ({"omega": predict_ds_f3inv(f).omega}, None),
        _diff_oracle, "omega", _OUTSIDE_HYPOTHESIS,
    ),
    "bs-f2": _Theorem(
        27, lambda q: 9 * q, lambda f: 2,
        lambda f, spec: _bs_f2(f),
        _boom_oracle, "nu",
    ),
    "cm-equiv": _Theorem(
        27, lambda q: 9 * q, lambda f: (3 ** (f.n - 1) + 1) // 2,
        _cm_equiv_predict, _cm_equiv_oracle, "nu",
    ),
}

THEOREMS = tuple(_TABLE)


def _theorem(name: str) -> _Theorem:
    if name not in _TABLE:
        raise NotApplicableError(f"unknown theorem {name!r}")
    return _TABLE[name]


def verify(field: FieldSpec, theorem: str, r: int | None = None) -> VerifyReport:
    """Run the predictor and the brute oracle for one theorem on one field."""
    t = _theorem(theorem)
    if t.exponent is None and r is None:
        raise NotApplicableError(f"theorem {theorem!r} needs an exponent r")
    if t.exponent is not None and r is not None:
        raise NotApplicableError(f"theorem {theorem!r} fixes its own exponent and takes no r")
    spec = BinomialSpec(r if t.exponent is None else t.exponent(field), 1)
    predicted, char_sum = t.predict(field, spec)
    oracle = t.oracle(field, spec)
    key = t.spectrum
    return VerifyReport(
        theorem, field.p, field.n, field.q, predicted, oracle, predicted == oracle,
        char_sum=char_sum,
        first_mismatch=_first_mismatch(predicted[key], oracle[key]) if key else None,
        note=t.note if field.q == 11 else "",
    )


def fields_for(theorem: str, qmax: int) -> Iterator[FieldSpec]:
    """All fields a theorem applies to with order at most qmax.

    A qmax above TABLE_LIMIT raises FFBinomError at the first step, before
    any field is built: a sweep would otherwise run for hours and fail only
    at the first field without tables.
    """
    t = _theorem(theorem)
    if qmax > TABLE_LIMIT:
        raise no_tables(qmax)
    q = t.first_q
    while q <= qmax:
        pn = prime_power(q)
        if pn is not None:
            yield make_field(*pn)
        q = t.next_q(q)
