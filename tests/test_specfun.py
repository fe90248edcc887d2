"""Special-function layer: recurrences, identities, precision tiers."""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from helmrad.specfun import (_MILLER_BATCH, EXTENDED, FundamentalPair,
                             SingularAtOrigin, eval_limit_at_origin,
                             fundamental_eval, fundamental_eval_d2,
                             spherical_bessel_j, spherical_bessel_y,
                             spherical_hankel_h1, spherical_jn_seq,
                             spherical_yn_seq, wronskian_w)
from interface_oracles import fundamental_eval_mp


class TestAgainstScipy:
    @pytest.mark.parametrize("x", [0.05, 0.7, 3.0, 14.9, 80.0])
    def test_jn_sequence(self, x):
        ours = spherical_jn_seq(25, x)
        ref = scipy.special.spherical_jn(np.arange(26), x)
        assert np.allclose(ours, ref, rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("x", [0.05, 0.7, 3.0, 14.9, 80.0])
    def test_yn_sequence(self, x):
        ours = spherical_yn_seq(25, x)
        ref = scipy.special.spherical_yn(np.arange(26), x)
        assert np.allclose(ours, ref, rtol=1e-12)

    def test_hankel_combines_both_kinds(self):
        h = spherical_hankel_h1(3, 2.2)
        assert h.real == pytest.approx(spherical_bessel_j(3, 2.2))
        assert h.imag == pytest.approx(spherical_bessel_y(3, 2.2))


def _exact_mpf(v):
    """The double or 80-bit ``v`` as an mpmath number, exactly."""
    import mpmath as mp
    frac, e = np.frexp(v)
    return mp.ldexp(int(np.ldexp(frac, 64)), int(e) - 64)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("m", [2, 3, 5, 10, 20, 30, 50])
def test_jn_above_the_turning_point_against_mpmath(m, dtype):
    """j_m for m < x <= 2000 within 16 eps of the dtype, relative to
    hypot(j_m, y_m) so that a zero of j_m does not read as a failure.  A
    downward recurrence started ceil(1.5 x) orders up gathers its rounding
    over all of them (40-50 eps at x ~ 1800); the forward recurrence takes
    m steps."""
    import mpmath as mp
    x = np.geomspace(m * (1 + 1e-6), 2000.0, 40).astype(dtype)
    j = spherical_jn_seq(m, x, dtype)[m]
    worst = 0
    with mp.workdps(30):
        for v, got in zip(x, j):
            v = _exact_mpf(v)
            pref, nu = mp.sqrt(mp.pi / (2 * v)), m + mp.mpf(1) / 2
            ref = pref * mp.besselj(nu, v)
            worst = max(worst, abs(_exact_mpf(got) - ref)
                        / mp.hypot(ref, pref * mp.bessely(nu, v)))
    assert worst <= 16 * float(np.finfo(dtype).eps)


@settings(max_examples=80, deadline=None)
@given(m=st.integers(min_value=1, max_value=30),
       x=st.floats(min_value=0.05, max_value=60.0,
                   allow_nan=False, allow_infinity=False))
def test_three_term_recurrence(m, x):
    """f_{m-1} + f_{m+1} = (2m+1)/x f_m for both spherical families."""
    j = spherical_jn_seq(m + 1, x)
    y = spherical_yn_seq(m + 1, x)
    for seq in (j, y):
        lhs = seq[m - 1] + seq[m + 1]
        rhs = (2 * m + 1) / x * seq[m]
        scale = max(abs(seq[m - 1]), abs(seq[m + 1]), abs(rhs), 1e-300)
        assert abs(lhs - rhs) / scale < 1e-12


@settings(max_examples=60, deadline=None)
@given(m=st.integers(min_value=0, max_value=20),
       x=st.floats(min_value=0.1, max_value=40.0,
                   allow_nan=False, allow_infinity=False))
def test_cross_wronskian(m, x):
    """j_m(x) y'_m(x) - j'_m(x) y_m(x) = 1/x^2, independent of the order."""
    pair = FundamentalPair(3, m)
    f1, df1 = fundamental_eval(pair, 1, x)
    f2, df2 = fundamental_eval(pair, 2, x)
    # f1 = j + i y, f2 = j: the cross product isolates the j/y Wronskian
    w = f2 * df1 - df2 * f1
    assert abs(w - 1j / x ** 2) < 1e-12 * max(1.0, 1.0 / x ** 2)


class TestDerivatives:
    @pytest.mark.parametrize("m", [0, 1, 4, 9])
    @pytest.mark.parametrize("which", [1, 2])
    def test_d2_satisfies_spherical_ode(self, m, which):
        pair = FundamentalPair(3, m)
        for x in (0.2, 1.7, 9.3, 31.0):
            f, df, d2f = fundamental_eval_d2(pair, which, x)
            resid = x * x * d2f + 2 * x * df + (x * x - m * (m + 1)) * f
            scale = max(abs(x * x * d2f), abs((x * x) * f), 1e-300)
            assert abs(resid) / scale < 1e-12

    def test_d2_first_derivative_matches_eval(self):
        pair = FundamentalPair(3, 5)
        for which in (1, 2):
            f, df = fundamental_eval(pair, which, 2.4)
            f2, df2, _ = fundamental_eval_d2(pair, which, 2.4)
            assert f == pytest.approx(f2, rel=1e-13)
            assert df == pytest.approx(df2, rel=1e-13)

    def test_extended_dtype_agrees_with_double(self):
        pair = FundamentalPair(3, 7)
        for which in (1, 2):
            a = fundamental_eval_d2(pair, which, 0.9)
            b = fundamental_eval_d2(pair, which, 0.9, dtype=np.longdouble)
            for u, v in zip(a, b):
                assert complex(u) == pytest.approx(complex(v), rel=1e-12)

    def test_dimension_one(self):
        pair = FundamentalPair(1, 0)
        v, dv = fundamental_eval(pair, 1, 0.8)
        assert v == pytest.approx(complex(math.cos(0.8), math.sin(0.8)))
        assert dv == pytest.approx(1j * v)
        v, dv = fundamental_eval(pair, 2, 0.8)
        assert v == pytest.approx(math.cos(0.8))
        assert dv == pytest.approx(-math.sin(0.8))


#: arguments 1e-6..200, with points at and beside the turning points x = m
_BATCH_X = np.unique(np.concatenate([
    np.geomspace(1e-6, 200.0, 97),
    [0.999, 1.0, 2.0, 6.9, 7.0, 7.1, 29.7, 30.0, 30.4]]))
_BATCH_PAIRS = [(1, 0)] + [(3, m) for m in (0, 1, 2, 7, 30)]


class TestArrayArguments:
    """An array of arguments gives the per-point float results."""

    @pytest.mark.parametrize("fn", [fundamental_eval, fundamental_eval_d2])
    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    @pytest.mark.parametrize("which", [1, 2])
    @pytest.mark.parametrize("d,m", _BATCH_PAIRS)
    def test_batch_matches_pointwise(self, d, m, which, dtype, fn):
        pair = FundamentalPair(d, m)
        x = _BATCH_X.astype(dtype)
        with np.errstate(all="ignore"):
            batch = fn(pair, which, x, dtype)
            ref = [np.array(col)
                   for col in zip(*(fn(pair, which, v, dtype) for v in x))]
        # envelope of the k-th derivative: the largest returned term, each
        # scaled to derivative order k by the natural rate 1 + (m+1)/x
        rate = 1.0 + (m + 1) / x
        base = np.max([np.abs(q) / rate ** k for k, q in enumerate(ref)],
                      axis=0)
        for k, (got, want) in enumerate(zip(batch, ref)):
            assert got.shape == x.shape
            assert got.dtype == want.dtype
            assert np.all(np.abs(got - want) <= 1e-14 * base * rate ** k)

    @pytest.mark.parametrize("m,which,x,expected", [
        (0, 1, 2.5, ("0x1.ea44b494c7782p-3", "0x1.4825ff2d13c64p-2",
                     "-0x1.aa33bce46ede4p-2", "0x1.c77fd0e16f4cap-4")),
        (2, 2, 0.75, ("0x1.270c61a9348c2p-5", "0x0.0p+0",
                      "0x1.7972ccad5550cp-4", "0x0.0p+0")),
        (7, 1, 7.25, ("0x1.82852d205ad1ep-4", "-0x1.a97cb7ca81a24p-3",
                      "0x1.52a8f479c371ep-5", "0x1.c4fdf1bf0cffbp-4")),
        (30, 2, 31.5, ("0x1.4cc58c021596cp-5", "0x0.0p+0",
                       "0x1.cee73d5469130p-8", "0x0.0p+0")),
    ])
    def test_float_argument_keeps_its_scalar_values(self, m, which, x,
                                                    expected):
        """Bit patterns of the scalar path, pinned (x86-64, glibc libm)
        before the recurrences took arrays; m = 30 re-pinned when j_m
        above the turning point took the forward recurrence."""
        f, df = fundamental_eval(FundamentalPair(3, m), which, x)
        assert isinstance(f, np.complex128)
        assert tuple(v.hex() for v in (f.real, f.imag, df.real, df.imag)) \
            == expected

    @pytest.mark.parametrize("m,which,x,expected", [
        (0, 1, 2.5, ("2.393888576415825976e-01", "3.2045744621877348592e-01",
                     "-4.1621298927540652495e-01",
                     "1.1120587915407320323e-01")),
        (1, 1, 0.75, ("2.3621708154305511468e-01",
                      "-2.2096318913623493535e+00",
                      "2.789394625829652498e-01",
                      "4.9167665518011704276e+00")),
        (2, 2, 0.75, ("3.6016646141108236356e-02", "0",
                      "9.215049697862216926e-02", "0")),
        (7, 1, 7.25, ("9.4365288042969241536e-02",
                      "-2.0775741183042938804e-01",
                      "4.134032963894029494e-02",
                      "1.1059374267716740649e-01")),
        (30, 2, 31.5, ("4.062154145565238198e-02", "0",
                       "7.0633434992582277974e-03", "0")),
    ])
    def test_extended_scalar_keeps_its_values(self, m, which, x, expected):
        """Extended values of the scalar path, pinned (x86-64, 80-bit long
        double, glibc libm) before the closed forms shared one sin/cos and
        the scalar Miller pass dropped its table (m = 7 and m = 30 since j_m
        above the turning point takes the forward recurrence).  Compared
        as values: the padding bytes of the 80-bit format are not
        reproducible.  The one-element array path gives the same values."""
        pair = FundamentalPair(3, m)
        f, df = fundamental_eval(pair, which, np.longdouble(x), np.longdouble)
        assert isinstance(f, np.clongdouble)
        want = [np.longdouble(v) for v in expected]
        assert [f.real, f.imag, df.real, df.imag] == want
        fa, dfa = fundamental_eval(pair, which,
                                   np.array([x], dtype=np.longdouble),
                                   np.longdouble)
        assert [fa[0].real, fa[0].imag, dfa[0].real, dfa[0].imag] == want

    def test_sequences_gain_a_trailing_point_axis(self):
        x = np.array([0.3, 4.0, 25.0])
        j = spherical_jn_seq(12, x)
        y = spherical_yn_seq(12, x)
        assert j.shape == y.shape == (13, 3)
        for i, v in enumerate(x):
            assert np.allclose(j[:, i], spherical_jn_seq(12, float(v)),
                               rtol=1e-13, atol=0.0)
            assert np.allclose(y[:, i], spherical_yn_seq(12, float(v)),
                               rtol=1e-13, atol=0.0)
        # any shape: each point as in a flat batch
        grid = np.array([[0.3, 4.0], [25.0, 13.0]])
        assert np.array_equal(spherical_jn_seq(12, grid),
                              spherical_jn_seq(12, grid.ravel()).reshape(
                                  13, 2, 2))

    def test_batched_recurrence_holds_no_start_by_points_table(self):
        """Every point is at or below the turning point, so all take the
        downward recurrence, from order 53; a (start + 2) x points table
        would take 7.2 MB here."""
        import tracemalloc
        x = np.linspace(0.01, 3.0, 16384)
        tracemalloc.start()
        try:
            spherical_jn_seq(3, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    @pytest.mark.parametrize("m", [2, 7, 30])
    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_points_do_not_depend_on_their_batch(self, m, dtype):
        """Each point takes the branch (forward above the turning point,
        downward at or below it) and the downward start of its own
        argument, so a column of a batch has the bits of the call at that
        point (compared as values: the padding bytes of the 80-bit format
        are not reproducible).  That holds on both sides of the count of
        points at or below the turning point past which their downward
        passes are batched: ``low`` of them, the turning point among them,
        beside three above it."""
        above = m + np.array([0.5, 3.0, 40.0])
        for low in (None, _MILLER_BATCH, _MILLER_BATCH + 1):
            x = _BATCH_X if low is None else np.concatenate(
                (np.linspace(0.05, m, low), above))
            x = x.astype(dtype)
            assert low is None or np.count_nonzero(x <= m) == low
            batch = spherical_jn_seq(m, x, dtype)
            for i, v in enumerate(x):
                assert np.array_equal(batch[:, i],
                                      spherical_jn_seq(m, v, dtype))

    @pytest.mark.parametrize("d,m", _BATCH_PAIRS)
    def test_extended_pair_rows_are_the_pointwise_values(self, d, m):
        """The extended tier's pair evaluation, one array call over every
        point (``_jn_seq`` alone choosing a batched or a scalar downward
        pass), gives six rows, the first four each point's
        ``fundamental_eval`` values."""
        from helmrad.specfun import EXTENDED
        pair = FundamentalPair(d, m)
        x = _BATCH_X.astype(np.longdouble)
        rows = EXTENDED.pair_eval(pair, x)
        assert rows.shape == (6, len(x))
        for i, v in enumerate(x):
            f, df = fundamental_eval(pair, 1, v, np.longdouble)
            assert [rows[0, i], rows[1, i]] == [f, df]
            assert [rows[2, i], rows[3, i]] == [f.real, df.real]

    def test_nonpositive_entry_rejected(self):
        for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                spherical_jn_seq(3, np.array([0.5, bad]))
            with pytest.raises(ValueError):
                spherical_jn_seq(3, bad)
            with pytest.raises(ValueError):
                fundamental_eval(FundamentalPair(3, 0), 1,
                                 np.array([bad, 2.0]))
            with pytest.raises(ValueError):
                wronskian_w(FundamentalPair(3, 2), 1, 2, bad, 1.0, 0.5)
            with pytest.raises(ValueError):
                wronskian_w(FundamentalPair(3, 2), 1, 2, 1.0, bad, 0.5)
            with pytest.raises(ValueError):
                wronskian_w(FundamentalPair(3, 2), 1, 2, 1.0, 1.0,
                            np.array([0.5, bad]))
            with pytest.raises(ValueError):
                fundamental_eval_mp(FundamentalPair(3, 2), 1, bad)
        with pytest.raises(ValueError):
            fundamental_eval_mp(FundamentalPair(3, 2), 3, 0.5)

    @pytest.mark.parametrize("pair", [FundamentalPair(1, 0),
                                      FundamentalPair(3, 0),
                                      FundamentalPair(3, 4)])
    @pytest.mark.parametrize("fn", [fundamental_eval, fundamental_eval_d2])
    def test_every_pair_checks_its_argument(self, fn, pair):
        for which in (1, 2):
            with pytest.raises(ValueError):
                fn(pair, which, -1.0)
            with pytest.raises(ValueError):
                fn(pair, which, np.array([1.0, 0.0]), np.longdouble)
        for which in (0, 3):
            with pytest.raises(ValueError):
                fn(pair, which, 1.0)


class TestArbitraryPrecision:
    @pytest.mark.parametrize("m", [0, 1, 2, 6])
    @pytest.mark.parametrize("which", [1, 2])
    def test_mp_matches_double(self, m, which):
        import mpmath as mp
        pair = FundamentalPair(3, m)
        with mp.workdps(30):
            for x in (0.3, 2.1, 17.5):
                v, dv = fundamental_eval_mp(pair, which, x)
                vd, dvd = fundamental_eval(pair, which, x)
                assert complex(v) == pytest.approx(vd, rel=1e-12)
                assert complex(dv) == pytest.approx(dvd, rel=1e-12)

    def test_mp_dimension_one(self):
        import mpmath as mp
        pair = FundamentalPair(1, 0)
        with mp.workdps(30):
            v, dv = fundamental_eval_mp(pair, 1, 1.1)
            assert complex(v) == pytest.approx(np.exp(1j * 1.1), rel=1e-14)

    def test_tiers_carry_their_rounding_unit(self):
        """EXTENDED's is np.longdouble's; mpmath's is mp.eps, which follows
        the working precision of the active context."""
        import mpmath as mp
        from helmrad.specfun import mp_tier
        assert EXTENDED.eps == np.finfo(np.longdouble).eps
        for dps in (30, 80):
            with mp.workdps(dps):
                assert mp_tier().eps == mp.eps == mp.mpf(2) ** (1 - mp.mp.prec)


IDENTITY_PAIRS = [(1, 0)] + [(3, m) for m in (0, 1, 2, 3, 7, 13, 30, 50)]
IDENTITY_ARGS = np.concatenate([[1e-9], np.geomspace(1e-6, 200.0, 301)])


class TestRealPartIdentity:
    """f_2 = Re f_1, f_2' = Re f_1' and f_2'' = Re f_1'' bit for bit on the
    positive axis, in every precision.

    The precision tiers evaluate f_1 alone and take f_2 from its real part.
    In double, y_m overflows at high order and small argument (m = 50 at
    x = 1e-6, m = 30 at x = 1e-9), and Re f_1' still keeps the bits of
    f_2'.
    """

    @staticmethod
    def _same(a, b):
        a, b = np.asarray(a), np.asarray(b)
        return np.array_equal(a, b) \
            and np.array_equal(np.signbit(a), np.signbit(b))

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble],
                             ids=["double", "extended"])
    @pytest.mark.parametrize("d,m", IDENTITY_PAIRS)
    def test_hardware(self, d, m, dtype):
        pair = FundamentalPair(d, m)
        x = IDENTITY_ARGS.astype(dtype)
        with np.errstate(all="ignore"):
            for fn in (fundamental_eval, fundamental_eval_d2):
                for arg in [x, *x]:
                    rows1 = fn(pair, 1, arg, dtype)
                    rows2 = fn(pair, 2, arg, dtype)
                    for f1, f2 in zip(rows1, rows2):
                        assert self._same(f1.real, f2.real)

    @pytest.mark.parametrize("d,m", IDENTITY_PAIRS)
    def test_mpmath(self, d, m):
        import mpmath as mp
        pair = FundamentalPair(d, m)
        with mp.workdps(40):
            for x in IDENTITY_ARGS:
                f1, df1 = fundamental_eval_mp(pair, 1, x)
                f2, df2 = fundamental_eval_mp(pair, 2, x)
                assert f1.real == f2.real and f2.imag == 0
                assert df1.real == df2.real and df2.imag == 0


MP_ORDERS = [0, 1, 2, 3, 5, 13, 30, 50]
MP_ARGS = np.geomspace(1e-8, 200.0, 25)


class TestArbitraryPrecisionAccuracy:
    """fundamental_eval_mp against itself at three times the digits.

    Each component's error is measured against its term envelope, |f| for
    f and |f_{m-1}| + (m+1)/x |f_m| for f' (|f_1| for f_0' = -f_1), so a
    zero of j_m' does not read as a failure.
    """

    @pytest.mark.parametrize("dps", [50, 150])
    @pytest.mark.parametrize("m", MP_ORDERS)
    def test_within_100_units_of_the_working_precision(self, dps, m):
        import mpmath as mp
        pair = FundamentalPair(3, m)
        worst = 0
        for x in MP_ARGS:
            with mp.workdps(3 * dps):
                rf, rdf = fundamental_eval_mp(pair, 1, x)
                lower = fundamental_eval_mp(FundamentalPair(3, m - 1), 1,
                                            x)[0] if m else None
            for which in (1, 2):
                with mp.workdps(dps):
                    f, df = fundamental_eval_mp(pair, which, x)
                if which == 2:
                    assert f.imag == 0 and df.imag == 0
                with mp.workdps(3 * dps):
                    for comp in ("real", "imag")[:3 - which]:
                        ref, dref = getattr(rf, comp), getattr(rdf, comp)
                        env = abs(getattr(lower, comp)) + (m + 1) / mp.mpf(x) \
                            * abs(ref) if m else abs(dref)
                        worst = max(worst,
                                    abs(getattr(f, comp) - ref) / abs(ref),
                                    abs(getattr(df, comp) - dref) / env)
        assert worst <= 100 * mp.mpf(10) ** -dps

    @pytest.mark.parametrize("m", [2, 13, 50])
    def test_matches_mpmath_half_integer_bessel_functions(self, m):
        """An independent reference: sqrt(pi/2x) (J, Y)_{m+1/2}(x)."""
        import mpmath as mp
        pair = FundamentalPair(3, m)
        for x in (1e-6, 0.7, 9.0, 45.0):
            with mp.workdps(60):
                f = fundamental_eval_mp(pair, 1, x)[0]
            with mp.workdps(120):
                x = mp.mpf(x)
                pref, nu = mp.sqrt(mp.pi / (2 * x)), m + mp.mpf(1) / 2
                j, y = pref * mp.besselj(nu, x), pref * mp.bessely(nu, x)
                assert abs(f.real - j) <= 1e-55 * abs(j)
                assert abs(f.imag - y) <= 1e-55 * abs(y)

    @pytest.mark.parametrize("dps", [30, 75, 400])
    def test_y_from_the_fixed_point_recurrence(self, dps):
        """y_m, run upward in fixed point, within one unit of the working
        precision of sqrt(pi/2x) Y_{m+1/2}(x), measured against
        hypot(j_m, y_m) so that a zero of y_m does not read as a failure."""
        import mpmath as mp
        worst = 0
        for m in (2, 3, 10, 37, 60):
            for x in np.geomspace(1e-8, 300.0, 25):
                with mp.workdps(dps):
                    y = fundamental_eval_mp(FundamentalPair(3, m), 1, x)[0]
                with mp.workdps(dps + 20):
                    x = mp.mpf(x)
                    pref, nu = mp.sqrt(mp.pi / (2 * x)), m + mp.mpf(1) / 2
                    ref = pref * mp.bessely(nu, x)
                    worst = max(worst, abs(y.imag - ref) / mp.hypot(
                        pref * mp.besselj(nu, x), ref))
        assert worst <= mp.mpf(10) ** -dps

    @pytest.mark.parametrize("x", [1.6e-8, 1e-3, 0.5])
    @pytest.mark.parametrize("m", [0, 1])
    def test_closed_form_j1_keeps_its_digits_near_zero(self, m, x):
        """j_1 = (j_0 - cos x)/x cancels 2 log10(1/x) digits for x < 1."""
        import mpmath as mp
        pair = FundamentalPair(3, m)
        with mp.workdps(300):
            f, df = fundamental_eval_mp(pair, 1, x)
        with mp.workdps(900):
            x = mp.mpf(x)
            j1 = mp.sqrt(mp.pi / (2 * x)) * mp.besselj(mp.mpf(3) / 2, x)
            j = -df.real if m == 0 else f.real
            assert abs(j - j1) <= mp.mpf(10) ** -298 * j1


SHIFT_ORDERS = [1, 2, 3, 10, 30, 60]
SHIFT_ARGS = np.concatenate([np.geomspace(1e-10, 300.0, 61),
                             [0.999, 1.0, 1.001, 2.5, 3.5]])


def _shifted_reference(m, x):
    """h_{m-1}(x), -j_{m+1}(x) and hypot(j_{m+1}, y_{m+1})(x) in the active
    mpmath context, from sqrt(pi/2x) (J, Y)_{k+1/2}(x)."""
    import mpmath as mp
    pref = mp.sqrt(mp.pi / (2 * x))
    lo, up = ((pref * mp.besselj(k + mp.mpf(1) / 2, x),
               pref * mp.bessely(k + mp.mpf(1) / 2, x)) for k in (m - 1, m + 1))
    return mp.mpc(*lo), -up[0], mp.hypot(*up)


class TestShiftedOrders:
    """Rows g_1 = h_{m-1} and g_2 = -j_{m+1} of both tiers' pair
    evaluation, the shifted orders of f' = (kappa/x) f + g."""

    @pytest.mark.parametrize("m", SHIFT_ORDERS)
    def test_extended_against_mpmath(self, m):
        """Within 32 eps of extended precision at x from 1e-10 to 300
        (worst measured 12 eps, m = 60 at x = 5e-8), g_2 measured against
        hypot(j_{m+1}, y_{m+1}) so that a zero of j_{m+1} does not read as
        a failure.  Orders 0 .. m keep the start and the
        branch of m's pass, so j_{m+1} is the Miller pass's own or one
        forward step past j_m; at m = 1 it is 3/x j_1 - j_0 from x = 1 and
        its series below."""
        import mpmath as mp
        from helmrad.specfun import EXTENDED
        x = SHIFT_ARGS.astype(np.longdouble)
        rows = EXTENDED.pair_eval(FundamentalPair(3, m), x)
        worst = 0
        with mp.workdps(40):
            for v, g1, g2 in zip(x, rows[4], rows[5]):
                ref1, ref2, env = _shifted_reference(m, _exact_mpf(v))
                got1 = mp.mpc(_exact_mpf(g1.real), _exact_mpf(g1.imag))
                assert g2.imag == 0
                worst = max(worst, abs(got1 - ref1) / abs(ref1),
                            abs(_exact_mpf(g2.real) - ref2) / env)
        assert worst <= 32 * float(np.finfo(np.longdouble).eps)

    @pytest.mark.parametrize("m", [1, 2, 30])
    def test_mpmath_tier_against_mpmath(self, m):
        import mpmath as mp
        from helmrad.specfun import mp_tier
        with mp.workdps(30):
            x = [mp.mpf(v) for v in SHIFT_ARGS[::4]]
            rows = mp_tier().pair_eval(FundamentalPair(3, m), x)
        assert rows.shape == (6, len(x))
        with mp.workdps(60):
            for v, g1, g2 in zip(x, rows[4], rows[5]):
                ref1, ref2, env = _shifted_reference(m, v)
                assert abs(g1 - ref1) <= 1e-28 * abs(ref1)
                assert g2.imag == 0 and abs(g2 - ref2) <= 1e-28 * env

    @pytest.mark.parametrize("d", [1, 3])
    def test_no_kappa_term_leaves_the_slope(self, d):
        """kappa = 0 for d=1, and for j_0 (g_2 = -j_1 = j_0'): those rows
        are the slopes, bit for bit; h_{-1} = e^{ix}/x."""
        import mpmath as mp
        from helmrad.specfun import EXTENDED, mp_tier
        x = SHIFT_ARGS.astype(np.longdouble)
        rows = EXTENDED.pair_eval(FundamentalPair(d, 0), x)
        assert np.array_equal(rows[5], rows[3])
        with mp.workdps(30):
            mp_rows = mp_tier().pair_eval(FundamentalPair(d, 0),
                                          [mp.mpf(v) for v in SHIFT_ARGS])
        assert list(mp_rows[5]) == list(mp_rows[3])
        if d == 1:
            assert np.array_equal(rows[4], rows[1])
            assert list(mp_rows[4]) == list(mp_rows[1])
            return
        with mp.workdps(40):
            for v, g1 in zip(x, rows[4]):
                v = _exact_mpf(v)
                got = mp.mpc(_exact_mpf(g1.real), _exact_mpf(g1.imag))
                assert abs(got - mp.expj(v) / v) <= 2e-19 * abs(1 / v)


class TestArbitraryPrecisionCost:
    """One series per order for j, the shifted order j_{m+1} included, as
    ``mp_tier().pair_eval`` reads it; y by recurrence, with no bessely."""

    @pytest.fixture
    def counts(self, monkeypatch):
        import mpmath as mp
        counts = {}
        for name in ("besselj", "bessely", "hyp0f1"):
            def counted(*args, _name=name, _fn=getattr(mp, name), **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(mp, name, counted)
        series = mp.mp.hypsum

        def counted_series(*args, **kwargs):
            counts["hypsum"] = counts.get("hypsum", 0) + 1
            return series(*args, **kwargs)
        monkeypatch.setattr(mp.mp, "hypsum", counted_series)
        return counts

    @pytest.mark.parametrize("m", [2, 7, 40])
    @pytest.mark.parametrize("x", [1e-7, 0.6, 17.0, 150.0])
    def test_three_bessel_j_evaluations_and_no_bessely(self, counts, m, x):
        """j_{m-1}, j_m and j_{m+1}."""
        import mpmath as mp
        with mp.workdps(75):
            fundamental_eval_mp(FundamentalPair(3, m), 1, x)
        assert counts.get("besselj", 0) + counts.get("hyp0f1", 0) <= 3
        assert counts.get("bessely", 0) == 0
        if x < 32:  # below mpmath's switch to the asymptotic expansion
            assert counts["hypsum"] == 3

    @pytest.mark.parametrize("m", [0, 1])
    def test_low_orders_take_no_series_but_the_shifted_one(self, counts, m):
        """The closed forms give orders 0 and 1; m = 1's shifted order j_2
        takes one series."""
        import mpmath as mp
        with mp.workdps(75):
            fundamental_eval_mp(FundamentalPair(3, m), 1, 0.3)
        assert counts == ({"hyp0f1": 1, "hypsum": 1} if m else {})


class TestValidation:
    def test_pair_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            FundamentalPair(2, 0)

    def test_pair_rejects_negative_mode(self):
        with pytest.raises(ValueError):
            FundamentalPair(3, -1)

    def test_pair_rejects_mode_in_1d(self):
        with pytest.raises(ValueError):
            FundamentalPair(1, 2)

    def test_nonpositive_argument_rejected(self):
        with pytest.raises(ValueError):
            spherical_jn_seq(3, 0.0)
        with pytest.raises(ValueError):
            fundamental_eval(FundamentalPair(3, 0), 1, -1.0)

    def test_origin_limits(self):
        with pytest.raises(SingularAtOrigin):
            eval_limit_at_origin(FundamentalPair(3, 0), 1)
        assert eval_limit_at_origin(FundamentalPair(3, 0), 2) == 1.0
        assert eval_limit_at_origin(FundamentalPair(3, 3), 2) == 0.0
        assert eval_limit_at_origin(FundamentalPair(1, 0), 2) == 1.0


def test_wronskian_w_same_speed_closed_form():
    """w^{1,2} with equal speeds reduces to the pair Wronskian at z/c."""
    pair = FundamentalPair(3, 2)
    c, z = 1.7, 3.9
    w = wronskian_w(pair, 1, 2, c, c, z)
    x = z / c
    # W(h, j)(x) = -i / x^2, and the speed division contributes 1/c
    assert w == pytest.approx(-1j / (c * x ** 2), rel=1e-12)
