"""Traced peak memory of the bulk field passes, in q-long int64 arrays.

Above gf._BUILD_CHUNK elements every pass runs in blocks and keeps one block
of scratch, so a call holds its q-long inputs and outputs and little else.
F_100003 has two blocks and F_{3^11} three, so one block is a large share of
an array there (0.66 and 0.37 of one): the bounds below leave room for it.
Each call runs once before it is traced, to build the lazy tables it reads,
and must give the same result under the trace.
"""

import numpy as np
import pytest

from ffbinom import gf
from ffbinom.boom import beta_row, bijkl_counts, boom_spectrum
from ffbinom.diff import d00_condition, delta_row
from ffbinom.family import BinomialSpec, eval_table
from ffbinom.gf import make_field


def _check_peak(peak_arrays, q, fn, bound):
    expected = fn()
    peak, result = peak_arrays(q, fn)
    assert np.array_equal(result, expected) if isinstance(result, np.ndarray) else result == expected
    assert peak < bound, f"traced peak {peak:.2f} q-long arrays, bound {bound}"


@pytest.mark.parametrize(
    "name,bound",
    [
        # the output and one int32 block (the power table held two arrays)
        ("power_table", 1.3),
        # the value table, the row and one int32 block; the histogram after
        # the value table is freed (three)
        ("delta_row", 2.3),
        # the value table and the keys, then the sorted keys with one block
        # of targets and of searchsorted results (4.21)
        ("beta_row", 2.5),
        # the int32 grouped values, the class mask, the pair differences and
        # their histogram (2.26; 2.64 with int64 values beside a q-long
        # array of key differences)
        ("boom_spectrum", 2.4),
        # the value table and the keys while they are built, then the
        # class-sorted keys with one block of targets and of searchsorted
        # results (4.21)
        ("bijkl_counts", 2.8),
    ],
)
def test_prime_field_peaks_near_1e5(peak_arrays, name, bound):
    f = make_field(100003, 1)
    spec = BinomialSpec(5, 7)
    calls = {
        "power_table": lambda: f.power_table(5),
        "delta_row": lambda: delta_row(f, spec),
        "beta_row": lambda: beta_row(f, spec, 1),
        "boom_spectrum": lambda: boom_spectrum(f, spec),
        "bijkl_counts": lambda: bijkl_counts(f, BinomialSpec(5, 1), 1),
    }
    _check_peak(peak_arrays, f.q, calls[name], bound)


@pytest.mark.parametrize(
    "name,bound",
    [
        # the row, and the gather and Zech subtraction of one block (4.30)
        ("shift_difference", 2.6),
        # the power table, the row and one block of Zech scratch (5.30)
        ("d00_condition", 2.6),
        # the value table, the keys and one block of Zech scratch (5.30)
        ("beta_row", 2.6),
        # with u = 1 the zero-difference class goes to outer_diff_hist,
        # next to the int32 grouped values and the profile (2.88; 3.13 with
        # int64 values)
        ("boom_spectrum", 3.0),
        # u = 0, r = 5: the pair kernel alone, its pooled differences and
        # the negation fold's copy beside the int32 values (3.24; 4.14 with
        # int64 values)
        ("boom_spectrum_u0", 3.4),
        # the value table, the keys and one block of Zech scratch (5.30)
        ("bijkl_counts", 2.6),
    ],
)
def test_extension_field_peaks_3_11(peak_arrays, name, bound):
    f = make_field(3, 11)
    spec = BinomialSpec(2, 1)
    fv = eval_table(f, spec)
    calls = {
        "shift_difference": lambda: f.shift_difference(fv),
        "d00_condition": lambda: d00_condition(f, 2),
        "beta_row": lambda: beta_row(f, spec, 1),
        "boom_spectrum": lambda: boom_spectrum(f, spec),
        "boom_spectrum_u0": lambda: boom_spectrum(f, BinomialSpec(5, 0)),
        "bijkl_counts": lambda: bijkl_counts(f, spec, 1),
    }
    _check_peak(peak_arrays, f.q, calls[name], bound)


def test_bijkl_counts_peak_one_matching_loop(peak_arrays):
    # the keys tagged with their class codes and sorted in place, and
    # matched class by class in one block of targets at a time: no q-long
    # target array (2.26; 2.66 with the tagged targets sorted beside the
    # keys)
    f = make_field(100003, 1)
    _check_peak(peak_arrays, f.q, lambda: bijkl_counts(f, BinomialSpec(5, 1), 1), 2.4)

@pytest.mark.parametrize("p,n", [(100003, 1), (3, 11)])
def test_outer_diff_hist_pair_path_peak(peak_arrays, p, n):
    # a class of about q/4 members with two distinct values, like the
    # zero-difference class of u = +-1: the multiplicity bincount is freed
    # before the one int64 histogram is made (2.00 with a float accumulator
    # and an int64 copy)
    f = make_field(p, n)
    values = np.tile(np.array([0, f.minus_one], dtype=np.int64), f.q // 8)
    _check_peak(peak_arrays, f.q, lambda: f.outer_diff_hist(values), 1.3)


@pytest.mark.parametrize("p,n", [(100003, 1), (3, 11)])
def test_run_diff_hist_peak(peak_arrays, monkeypatch, p, n):
    # runs of two among singletons, binned _PAIR_CHUNK = 2^12 differences at
    # a time: one histogram, next to the pairs' first positions and values (a
    # third of an array each) and the fold's copy on F_{p^n}; 2.75 when each
    # piece had its own bincount, 3.75 with each kept until the next one was
    # made.  test_run_diff_hist_one_histogram holds the tighter bound
    monkeypatch.setattr(gf, "_PAIR_CHUNK", 1 << 12)
    f = make_field(p, n)
    q = f.q
    values = np.random.default_rng(q).integers(0, q, q)
    same = np.zeros(q, dtype=bool)
    same[::3] = True
    same[-1] = False
    _check_peak(peak_arrays, q, lambda: f.run_diff_hist(values, same), 3.0)


@pytest.mark.parametrize("p,n", [(100003, 1), (3, 11)])
def test_run_diff_hist_one_histogram(peak_arrays, monkeypatch, p, n):
    # the inputs of test_run_diff_hist_peak: every piece is added to one
    # int64 histogram, made after the first piece, and the last piece is
    # dropped before the fold (1.79 and 2.01; 2.75 and 2.74 with a q-long
    # bincount per piece beside the histogram)
    monkeypatch.setattr(gf, "_PAIR_CHUNK", 1 << 12)
    f = make_field(p, n)
    q = f.q
    values = np.random.default_rng(q).integers(0, q, q)
    same = np.zeros(q, dtype=bool)
    same[::3] = True
    same[-1] = False
    _check_peak(peak_arrays, q, lambda: f.run_diff_hist(values, same), 2.3)
