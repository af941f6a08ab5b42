import numpy as np
import pytest

from ffbinom import boom
from ffbinom.boom import beta_ab, beta_profile, beta_row, bijkl_counts, boom_spectrum
from ffbinom.errors import FFBinomError, InvariantError, UnsupportedUError, ZeroShiftError
from ffbinom.family import BinomialSpec
from ffbinom.gf import FieldSpec, make_field

from naive_oracles import naive_beta_count, pairwise_diff_hist, reduced_index


@pytest.mark.parametrize("p,n,r", [(11, 1, 3), (3, 3, 2)])
def test_beta_row_matches_naive_pair_count(p, n, r):
    f = make_field(p, n)
    spec = BinomialSpec(r, 1)
    for b in f.elements():
        assert beta_row(f, spec, b) == naive_beta_count(f, spec, 1, b)


@pytest.mark.parametrize(
    "p,n,r,u,fft_classes",
    [
        pytest.param(11, 1, 3, 1, 0, id="11-1-3"),
        pytest.param(3, 3, 2, 1, 1, id="3-3-2"),
        pytest.param(23, 1, 15, 1, 1, id="23-1-15"),
        # u = -1 on both sides of the s*s <= q routing rule
        pytest.param(11, 1, 3, 10, 0, id="11-1-3-uminus1"),
        pytest.param(7, 2, 2, 6, 1, id="7-2-2-uminus1"),
        pytest.param(7, 2, 4, 6, 3, id="7-2-4-uminus1"),
        pytest.param(3, 5, 2, 2, 1, id="3-5-2-uminus1"),
    ],
)
def test_beta_profile_matches_beta_row(monkeypatch, p, n, r, u, fft_classes):
    f = make_field(p, n)
    spec = BinomialSpec(r, u)
    sizes = []
    fft = FieldSpec.outer_diff_hist

    def spy(self, values):
        sizes.append(len(values))
        return fft(self, values)

    monkeypatch.setattr(FieldSpec, "outer_diff_hist", spy)
    profile = beta_profile(f, spec)
    assert len(sizes) == fft_classes
    assert all(s * s > f.q for s in sizes)
    for b in f.elements():
        assert profile[b] == beta_row(f, spec, b)


def test_beta_profile_matches_beta_row_generic_u_near_1e4(monkeypatch):
    # generic u on a prime near 10^4: every class is small, so the whole
    # profile comes from the packed-key grouping and the pair kernel
    f = make_field(9931, 1)
    spec = BinomialSpec(7, 4731)

    def no_fft(self, values):
        raise AssertionError(f"a class of {len(values)} reached the FFT")

    monkeypatch.setattr(FieldSpec, "outer_diff_hist", no_fft)
    profile = beta_profile(f, spec)
    rng = np.random.default_rng(9931)
    bs = [0, int(profile[1:].argmax()) + 1, *rng.integers(1, f.q, 150).tolist()]
    for b in bs:
        assert profile[b] == beta_row(f, spec, b)
    assert int(profile[1:].max()) >= 2


def _runs_with_repeats(field, rng):
    # runs of sizes 2, 3 and 58; some values repeat inside a run, which makes
    # off-diagonal zero differences
    rows = [rng.integers(0, field.q, s) for s in (2, 3, 58, 3, 2, 58)]
    rows[2][:6] = rows[2][10]
    rows[3][:] = rows[3][0]
    rows[4][1] = rows[4][0]
    return rows


@pytest.mark.parametrize("p,n", [(101, 1), (3461, 1), (5, 3), (3, 5)])
@pytest.mark.parametrize("chunk", [None, 5])
def test_within_row_diff_hist_matches_pairwise(monkeypatch, p, n, chunk):
    f = make_field(p, n)
    if chunk:
        # pieces and pooled bincounts break inside every offset
        monkeypatch.setattr(boom, "_PAIR_CHUNK", chunk)
    rows = _runs_with_repeats(f, np.random.default_rng(p**n))
    for row in rows:
        assert (boom._within_row_diff_hist(f, row, [len(row)]) == pairwise_diff_hist(f, row)).all()
    values = np.concatenate(rows)
    sizes = np.array([len(row) for row in rows])
    expected = sum(pairwise_diff_hist(f, row) for row in rows)
    assert (boom._within_row_diff_hist(f, values, sizes) == expected).all()


def test_beta_diagonal_at_zero():
    for p, n in [(11, 1), (3, 3)]:
        f = make_field(p, n)
        assert beta_row(f, BinomialSpec(2, 1), 0) >= f.q


def test_boom_spectrum_f27():
    f = make_field(3, 3)
    spectrum = boom_spectrum(f, BinomialSpec(2, 1))
    assert spectrum.nu == {0: 14, 1: 12}
    assert spectrum.uniformity == 1


def test_boom_spectrum_f243():
    f = make_field(3, 5)
    spectrum = boom_spectrum(f, BinomialSpec(2, 1))
    assert spectrum.nu == {0: 182, 1: 60}


def test_boom_spectrum_corollary_partner():
    f = make_field(3, 3)
    assert boom_spectrum(f, BinomialSpec(5, 1)).nu == boom_spectrum(f, BinomialSpec(2, 1)).nu


def test_boom_spectrum_sum_identity():
    for p, n, r in [(11, 1, 3), (23, 1, 3), (3, 3, 2), (13, 1, 2)]:
        f = make_field(p, n)
        spectrum = boom_spectrum(f, BinomialSpec(r, 1))
        assert sum(spectrum.nu.values()) == f.q - 1


def test_beta_profile_guards_pair_total(monkeypatch):
    # one pair too many from the batched small-class histograms
    within = boom._within_row_diff_hist

    def corrupted(*args):
        hist = within(*args)
        hist[1] += 1
        return hist

    monkeypatch.setattr(boom, "_within_row_diff_hist", corrupted)
    with pytest.raises(InvariantError):
        boom_spectrum(make_field(1019, 1), BinomialSpec(5, 3))


def test_beta_upper_bound_f11_cube():
    f = make_field(11, 1)
    profile = beta_profile(f, BinomialSpec(3, 1))
    assert int(profile[1:].max()) <= 2


@pytest.mark.parametrize("p,n,r", [(11, 1, 3), (3, 3, 2), (3, 5, 2)])
def test_beta_symmetry_in_b(p, n, r):
    # swapping (x, y) negates b for u = 1
    f = make_field(p, n)
    profile = beta_profile(f, BinomialSpec(r, 1))
    xs = np.arange(f.q, dtype=np.int64)
    neg = f.sub_arrays(np.zeros(f.q, dtype=np.int64), xs)
    assert (profile == profile[neg]).all()


def test_beta_ab_reduces_to_row():
    f = make_field(11, 1)
    spec = BinomialSpec(3, 1)
    for b in f.elements():
        assert beta_ab(f, spec, 1, b) == beta_row(f, spec, b)
    with pytest.raises(ZeroShiftError):
        beta_ab(f, spec, 0, 1)


def test_beta_ab_exhaustive_f11():
    f = make_field(11, 1)
    spec = BinomialSpec(3, 1)
    for a in range(1, f.q):
        for b in range(1, f.q):
            # internal debug assert cross-checks the reduced-row lookup
            assert beta_ab(f, spec, a, b) == naive_beta_count(f, spec, a, b)


def test_beta_ab_max_equals_row_max_f27():
    f = make_field(3, 3)
    spec = BinomialSpec(2, 1)
    row_max = int(beta_profile(f, spec)[1:].max())
    all_max = max(beta_ab(f, spec, a, b) for a in range(1, f.q) for b in range(1, f.q))
    assert all_max == row_max


@pytest.mark.parametrize("p,n,r", [(3, 3, 2), (3, 5, 2)])
def test_beta_profile_any_shift_matches_reduction(p, n, r):
    f = make_field(p, n)
    spec = BinomialSpec(r, 1)
    profile1 = beta_profile(f, spec)
    xs = np.arange(f.q, dtype=np.int64)
    for a in range(1, f.q):
        profile_a = beta_profile(f, spec, a)
        ar = f.pow(a, r)
        den = ar if (f.chi(a) == 1 or r % 2 == 0) else f.neg(ar)
        mapped = f.mul_arrays(xs, f.inv(den))
        assert (profile_a == profile1[mapped]).all()


@pytest.mark.parametrize("p,n,r", [(11, 1, 3), (3, 3, 2)])
def test_bijkl_decomposition(p, n, r):
    f = make_field(p, n)
    spec = BinomialSpec(r, 1)
    for b in range(1, f.q):
        counts = bijkl_counts(f, spec, b)
        assert counts.total == beta_row(f, spec, b)


@pytest.mark.parametrize("p,n,r", [(11, 1, 3), (23, 1, 3), (3, 3, 2), (23, 1, 15)])
def test_bijkl_lemma_zeroes_and_bounds(p, n, r):
    f = make_field(p, n)
    spec = BinomialSpec(r, 1)
    for b in range(1, f.q):
        counts = bijkl_counts(f, spec, b).counts
        # mixed-class pairs vanish
        assert counts["0101"] == counts["0110"] == counts["1010"] == counts["1001"] == 0
        # no pair of S00 solutions
        assert counts["0000"] == 0
        # no solution touches S11 on either side
        assert all(c == 0 for key, c in counts.items() if "11" in (key[:2], key[2:]))
        # each remaining class admits at most one solution
        for key in ("0001", "0010", "0100", "1000"):
            assert counts[key] <= 1
        # exclusivity between the two chi(b/2) camps
        assert (counts["0100"] == counts["1000"] == 0) or (
            counts["0001"] == counts["0010"] == 0
        )


@pytest.mark.parametrize("p,n,r", [(3, 3, 2), (11, 1, 3)])
def test_bijkl_boundary_only_zero_coordinate(p, n, r):
    # for b != 0 (gcd | 2) boundary solutions can only involve x = 0 or
    # y = 0, never -1; verified against a naive enumeration
    f = make_field(p, n)
    spec = BinomialSpec(r, 1)
    from ffbinom.family import eval_table

    fv = eval_table(f, spec)
    f1 = fv[f.succ_table]
    for b in range(1, f.q):
        boundary_pairs = [
            (x, y)
            for x in f.elements()
            for y in f.elements()
            if f.sub(int(fv[x]), int(fv[y])) == b and f.sub(int(f1[x]), int(f1[y])) == b
            and (x in (0, f.minus_one) or y in (0, f.minus_one))
        ]
        assert len(boundary_pairs) == bijkl_counts(f, spec, b).boundary
        for x, y in boundary_pairs:
            assert x == 0 or y == 0


@pytest.mark.parametrize("n", [3, 5])
def test_bijkl_characterization_char3_square(n):
    # the four single-solution classes are cut out by explicit character
    # conditions in b
    f = make_field(3, n)
    spec = BinomialSpec(2, 1)
    e = (f.q + 1) // 4
    for b in range(1, f.q):
        counts = bijkl_counts(f, spec, b).counts
        be = f.pow(b, e)
        c_b = f.chi(b)
        c_p = f.chi(f.add(be, 1))
        c_m = f.chi(f.sub(be, 1))
        t0001 = f.chi(f.add(f.pow(f.sub(1, be), e), 1))
        t0010 = f.chi(f.sub(f.pow(f.add(be, 1), e), 1))
        t0100 = f.chi(f.add(f.pow(f.add(be, 1), e), 1))
        t1000 = f.chi(f.sub(f.pow(f.sub(1, be), e), 1))
        assert (counts["0001"] == 1) == (c_b == -1 and c_p == -1 and c_m == -1 and t0001 == -1)
        assert (counts["0010"] == 1) == (c_b == -1 and c_m == -1 and c_p == 1 and t0010 == -1)
        assert (counts["0100"] == 1) == (c_b == 1 and c_m == 1 and c_p == 1 and t0100 == -1)
        assert (counts["1000"] == 1) == (c_b == 1 and c_p == 1 and c_m == -1 and t1000 == -1)


def test_bijkl_rejects_bad_inputs():
    f = make_field(11, 1)
    with pytest.raises(UnsupportedUError):
        bijkl_counts(f, BinomialSpec(3, 4), 1)
    with pytest.raises(FFBinomError):
        bijkl_counts(f, BinomialSpec(3, 1), 0)


def test_theorem_beta_f2_is_one_char3():
    for n in (3, 5):
        f = make_field(3, n)
        assert boom_spectrum(f, BinomialSpec(2, 1)).uniformity == 1


@pytest.mark.parametrize("p,n", [(11, 1), (3, 3)])
def test_row_reductions_hold_for_general_u(p, n):
    # the shift-reduction identities hold for arbitrary u when q = 3 (mod 4):
    # delta(a, b) and beta(a, b) are entries of the a = 1 row
    from ffbinom.diff import delta_ab, delta_row

    f = make_field(p, n)
    for u in (1, f.minus_one, 5 % f.q, 7 % f.q):
        for r in (2, 3):
            spec = BinomialSpec(r, u)
            row = delta_row(f, spec)
            for a in range(1, f.q, 3):
                for b in range(0, f.q, 2):
                    assert delta_ab(f, spec, a, b) == row[reduced_index(f, spec, a, b, beta=False)]
                    assert beta_ab(f, spec, a, b) == beta_row(f, spec, reduced_index(f, spec, a, b, beta=True))
