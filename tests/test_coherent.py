import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from catsense import coherent, fock
from catsense.coherent import (
    TOL_LABEL,
    CoherentLabel,
    SuperpositionState,
    displace,
    expect_generator,
    inner,
    make_entangled_cat,
    mean_photon_number,
    norm_squared,
    overlap,
    variance_generator,
)
from catsense.errors import (
    TOL_HERM,
    CatsenseError,
    ConsistencyError,
    DegenerateState,
    DimensionMismatch,
    require_real,
)

# reusable strategies: amplitudes small enough that overlaps stay far from
# underflow and fock cross-checks stay cheap
amp = st.complex_numbers(max_magnitude=2.5, allow_nan=False, allow_infinity=False)
small_amp = st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False)


def label(*amps):
    return CoherentLabel(tuple(amps))


@st.composite
def separated_terms(draw):
    """1..6-mode (coeff, label) lists whose labels lie at least 1 apart.

    Term i sits at 1.5 i (+-0.25) on the real axis of mode 0, so any two
    labels differ by >= 1 there; every other component is free in a box.
    """
    modes = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    box = st.floats(-1.5, 1.5)
    terms = []
    for i in range(n):
        amps = [complex(1.5 * i + draw(st.floats(-0.25, 0.25)), draw(box))]
        amps += [complex(draw(box), draw(box)) for _ in range(modes - 1)]
        coeff = draw(st.floats(0.1, 2.0)) * cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
        terms.append((coeff, amps))
    return terms


@st.composite
def free_states(draw):
    """1..4-mode states of 1..9 terms, every label component free in a box."""
    modes = draw(st.integers(1, 4))
    box = st.floats(-2.0, 2.0)
    terms = []
    for _ in range(draw(st.integers(1, 9))):
        coeff = draw(st.floats(0.1, 2.0)) * cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
        terms.append((coeff, label(*(complex(draw(box), draw(box)) for _ in range(modes)))))
    return SuperpositionState(terms)


class TestOverlap:
    def test_matches_direct_exponential(self):
        a, b = label(0.5 + 0.25j, -1.0), label(1.5j, 0.75)
        expected = cmath.exp(
            sum(
                -0.5 * (abs(x) ** 2 + abs(y) ** 2) + x.conjugate() * y
                for x, y in zip(a.amplitudes, b.amplitudes)
            )
        )
        assert overlap(a, b) == pytest.approx(expected, rel=1e-14)

    def test_self_overlap_is_one(self):
        a = label(1.2 - 0.7j, 0.3j, -2.0)
        assert overlap(a, a) == pytest.approx(1.0, abs=1e-14)

    def test_vacuum_against_gaussian(self):
        a = label(1.25)
        assert overlap(label(0.0), a) == pytest.approx(math.exp(-1.25**2 / 2), rel=1e-14)

    def test_distant_labels_underflow_to_zero(self):
        # exact closed form is exp(-|a-b|^2/2) ~ 1e-3909; must be clean 0,
        # not a range error
        assert overlap(label(60.0), label(-60.0)) == 0.0

    @pytest.mark.parametrize("x", [1e154, 1e308, 1.7976931348623157e308])
    def test_labels_at_the_edge_of_the_double_range(self, x):
        # |2x|^2 overflows: the pair is far apart, overlap exactly 0; a label with itself has the
        # midpoint x / 2 + x / 2 = x, a double, and overlap exactly 1
        assert overlap(label(x), label(-x)) == 0
        assert overlap(label(x), label(x)) == 1

    @pytest.mark.parametrize("x,y", [(1e308, 1e308 + 38j), (1.7e308, 1.7e308 + 1.1j)])
    def test_a_phase_past_the_double_range_is_refused(self, x, y):
        # |D|^2 = 1444 and 1.21: the magnitudes exp(-722) and exp(-0.605) are doubles, the phases
        # Im(conj(P) D) ~ -3.8e309 and -1.9e308 are not
        with pytest.raises(ValueError, match=r"^<s\|t> = .* is past the double range$"):
            overlap(label(x), label(y))

    def test_a_pair_of_magnitude_zero_is_zero_whatever_its_phase(self):
        # |D|^2 = 3600: exp(-1800) underflows, so the phase ~ -1e310 is never needed
        assert overlap(label(1.7e308), label(1.7e308 + 60j)) == 0

    def test_a_coefficient_product_past_the_double_range_is_refused(self):
        with pytest.raises(ValueError, match=r"^<s\|t> = .* is past the double range$"):
            norm_squared(SuperpositionState([(1e200, label(0.0))]))

    def test_mode_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            overlap(label(1.0), label(1.0, 0.0))

    @given(a1=amp, a2=amp, b1=amp, b2=amp)
    def test_magnitude_at_most_one(self, a1, a2, b1, b2):
        v = abs(overlap(label(a1, a2), label(b1, b2)))
        assert v <= 1.0 + 1e-12

    @given(a=amp, b=amp)
    def test_swap_conjugates(self, a, b):
        assert overlap(label(a), label(b)) == pytest.approx(
            overlap(label(b), label(a)).conjugate(), abs=1e-14
        )

    @given(a=small_amp, b=small_amp)
    def test_against_fock_oracle(self, a, b):
        exact = overlap(label(a), label(b))
        dim = fock.recommended_dim(max(abs(a), abs(b)))
        brute = np.vdot(fock.coherent_vector(a, dim).amplitudes, fock.coherent_vector(b, dim).amplitudes)
        assert brute == pytest.approx(exact, abs=5e-11)


def _plain_gram(s, t):
    """The Gram matrix by the plain formula, midpoint (L + K) / 2 and no range rule: what
    `_gram` must reproduce bit for bit while every label, sum and difference is a normal double."""
    bra, ket = s.labels[:, None, :], t.labels[None, :, :]
    diff, mid = bra - ket, 0.5 * (bra + ket)
    z = np.sum(-0.5 * (diff.real**2 + diff.imag**2) - 1j * (mid.conj() * diff).imag, axis=2)
    return s.coeffs.conj()[:, None] * t.coeffs[None, :] * np.exp(z)


# a label component: 0, or of either sign with magnitude 1e-8 to 1e6, log-uniform
wide_part = st.one_of(st.just(0.0), st.builds(lambda sign, e: sign * 10.0**e,
                                              st.sampled_from([1.0, -1.0]), st.floats(-8.0, 6.0)))

coefficient = st.builds(lambda r, phi: r * cmath.exp(1j * phi),
                        st.floats(0.1, 2.0), st.floats(0.0, 2 * math.pi))


@st.composite
def state_pairs(draw):
    """Two states of one mode count (1..4), each of 1..20 terms, labels built from `wide_part`."""
    modes = draw(st.integers(1, 4))

    def state():
        n = draw(st.integers(1, 20))
        parts = draw(arrays(np.float64, (n, modes, 2), elements=wide_part))
        coeffs = draw(arrays(np.complex128, n, elements=coefficient))
        return SuperpositionState([(c, label(*row)) for c, row in zip(coeffs, parts @ [1, 1j])])

    return state(), state()


@given(state_pairs())
def test_gram_is_the_plain_formula_inside_the_double_range(pair):
    s, t = pair
    for bra, ket in ((s, t), (s, s), (t, s)):
        assert coherent._gram(bra, ket)[0].tobytes() == _plain_gram(bra, ket).tobytes()


# a label or kick component anywhere in the double range, zeros and both extremes included
any_part = st.one_of(st.sampled_from([0.0, -0.0, 1.7976931348623157e308, -1.7976931348623157e308]),
                     st.floats(-1.7976931348623157e308, 1.7976931348623157e308))
huge_coefficient = st.builds(complex, *[st.one_of(st.just(0.0), st.floats(-1e300, 1e300))] * 2)


@st.composite
def double_range_cases(draw):
    """(s, t, kicks): two states of 1..6 terms on one mode count (1..3) and one kick per mode,
    components from `any_part` and coefficients from `huge_coefficient`."""
    modes = draw(st.integers(1, 3))
    amps = st.lists(st.builds(complex, any_part, any_part), min_size=modes, max_size=modes)
    terms = st.lists(st.tuples(huge_coefficient, amps.map(CoherentLabel)), min_size=1, max_size=6)
    return SuperpositionState(draw(terms)), SuperpositionState(draw(terms)), draw(amps)


def _double_or_named(call, *names):
    """call()'s value once every entry is finite, or None once it is refused naming one of names."""
    try:
        value = call()
    except (ValueError, CatsenseError) as e:
        assert any(name in str(e) for name in names), repr(e)
        return None
    assert np.all(np.isfinite(value)), value
    return value


def _one(amps):
    return SuperpositionState([(1.0, label(*amps))])


@given(double_range_cases())
@example((make_entangled_cat(1e154, 1), make_entangled_cat(1e154, 1), [0.0]))
@example((make_entangled_cat(1e155, 1), make_entangled_cat(1e155, 1), [0.0]))
@example((displace(make_entangled_cat(1.0, 2), [1.7e308] * 2), make_entangled_cat(1.0, 2), [0.0] * 2))
@example((_one([1e308]), _one([1e308 + 38j]), [0.0]))
@example((_one([1.7e308]), _one([1.7e308 + 1.1j]), [0.0]))
@example((_one([1.7e308]), _one([1.7e308 + 60j]), [0.0]))
@example((SuperpositionState([(1e200, label(0.0))]), _one([0.0]), [0.0]))
def test_every_call_is_a_double_or_refused_by_name(case):
    s, t, kicks = case
    gram, norm = "<s|t>", ("<s|t>", "norm^2")
    a, b = CoherentLabel(s.labels[0]), CoherentLabel(t.labels[0])
    ab = _double_or_named(lambda: overlap(a, b), gram)
    ba = _double_or_named(lambda: overlap(b, a), gram)
    assert (ab is None) == (ba is None)
    if ab is not None:
        assert ab == ba.conjugate()
    _double_or_named(lambda: inner(s, t), gram)
    _double_or_named(lambda: norm_squared(s), *norm)

    def moved():
        out = displace(s, kicks)
        return np.append(out.coeffs, out.labels)

    _double_or_named(moved, "displaced label amplitude", "displacement phase")
    _double_or_named(lambda: expect_generator(s), *norm, "<G>")
    _double_or_named(lambda: variance_generator(s), *norm, "<G>", "Var(G)")
    _double_or_named(lambda: mean_photon_number(s), *norm, "<n>")


def _frozen_weights(s):
    w = _plain_gram(s, s)
    return w / coherent._positive_norm(s, complex(np.sum(w)))


def _frozen_expect(w, element):
    return require_real("Hermitian expectation", complex(np.sum(w * element)))


def _frozen_expect_generator(s):
    return _frozen_expect(_frozen_weights(s), coherent._generator_element(s))


def _frozen_variance_generator(s):
    w = _frozen_weights(s)
    e1 = coherent._generator_element(s)
    var = _frozen_expect(w, (e1 - _frozen_expect(w, e1)) ** 2 + s.mode_count)
    if var < -TOL_HERM:
        raise ConsistencyError(f"variance {var} < 0 beyond tolerance")
    return max(var, 0.0)


def _frozen_mean_photon_number(s):
    w = _frozen_weights(s)
    mu = np.sum(w, axis=0) @ s.labels
    dev = s.labels - mu
    n = float(np.sum(np.abs(mu) ** 2)) + _frozen_expect(w, dev.conj() @ dev.T)
    if n < -TOL_HERM:
        raise ConsistencyError(f"photon number {n} < 0 beyond tolerance")
    return max(n, 0.0)


def _outcome(call, s):
    try:
        return call(s).hex()
    except CatsenseError as e:
        return type(e)


@given(state_pairs())
def test_moments_keep_their_bits_inside_the_double_range(pair):
    # the three moments as they were before the moment gate, on the plain Gram formula
    for s in pair:
        assert _outcome(expect_generator, s) == _outcome(_frozen_expect_generator, s)
        assert _outcome(variance_generator, s) == _outcome(_frozen_variance_generator, s)
        assert _outcome(mean_photon_number, s) == _outcome(_frozen_mean_photon_number, s)


@st.composite
def clustered_labels(draw):
    """3..12 labels of 1..3 modes, each one of a few base amplitudes plus offsets of up to
    3 TOL_LABEL per component, so near labels form chains as well as pairs.  A label's offset
    is free per component, or one step of a 0.9 TOL_LABEL grid on every component, which
    makes chains common: steps 0, 1 and 2 are one."""
    modes = draw(st.integers(1, 3))
    bases = draw(st.lists(st.lists(amp, min_size=modes, max_size=modes), min_size=1, max_size=2))
    part = st.floats(-3 * TOL_LABEL, 3 * TOL_LABEL)
    free = st.lists(st.builds(complex, part, part), min_size=modes, max_size=modes)
    grid = st.integers(-3, 3).map(lambda k: [0.9 * k * TOL_LABEL] * modes)
    pairs = draw(st.lists(st.tuples(st.sampled_from(bases), st.one_of(grid, free)),
                          min_size=3, max_size=12))
    return [[b + d for b, d in zip(base, offset)] for base, offset in pairs]


class TestSuperpositionState:
    def test_nearby_labels_merge(self):
        s = SuperpositionState(
            [(1.0, label(1.0, 2.0)), (2.0, label(1.0 + 1e-13, 2.0 - 1e-13))]
        )
        assert len(s) == 1
        assert s.coeffs[0] == pytest.approx(3.0)

    @pytest.mark.parametrize("amps", [(0.0, 0.9e-12, 1.8e-12), (1.8e-12, 0.9e-12, 0.0)])
    def test_label_chains_merge_into_one_term(self, amps):
        # the ends are 1.8e-12 apart, but each is within TOL_LABEL of the middle label
        s = SuperpositionState([(1.0, label(a)) for a in amps])
        assert len(s) == 1
        assert s.coeffs[0] == 3.0 and s.labels[0, 0] == amps[0]

    @given(clustered_labels())
    def test_stored_labels_are_pairwise_apart(self, labels):
        s = SuperpositionState([(1.0, label(*amps)) for amps in labels])
        gap = np.max(np.abs(s.labels[:, None, :] - s.labels[None, :, :]), axis=2)
        assert np.all((gap > TOL_LABEL) | np.eye(len(s), dtype=bool))
        assert np.sum(s.coeffs) == len(labels)  # merging adds coefficients, losing none

    def test_arrays_frozen(self):
        s = SuperpositionState([(1.0, label(0.5, 1.0)), (2.0, label(-0.5, 0.0))])
        assert s.coeffs.shape == (2,) and s.labels.shape == (2, 2)
        with pytest.raises(ValueError):
            s.coeffs[0] = 0.0
        with pytest.raises(ValueError):
            s.labels[0, 0] = 0.0

    def test_distinct_labels_kept(self):
        s = SuperpositionState([(1.0, label(1.0)), (1.0, label(1.0 + 1e-9))])
        assert len(s) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SuperpositionState([])

    def test_mixed_mode_counts_rejected(self):
        with pytest.raises(DimensionMismatch):
            SuperpositionState([(1.0, label(1.0)), (1.0, label(1.0, 0.0))])

    def test_a_label_of_no_modes_rejected(self):
        with pytest.raises(DimensionMismatch, match=r"^a coherent label needs at least one mode$"):
            CoherentLabel(())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_nonfinite_label_rejected_wherever_a_state_is_made(self, bad):
        # one finiteness rule: the state's store (constructor, overlap) and
        # displace's kicks, checked before any arithmetic can warn
        shown = re.escape(str(complex(bad)))
        with pytest.raises(ValueError, match=rf"^label amplitude must be finite, got {shown}$"):
            SuperpositionState([(1.0, label(0.5, bad))])
        with pytest.raises(ValueError, match=rf"^kick must be finite, got {shown}$"):
            displace(make_entangled_cat(0.5, 2), [0.0, bad])
        with pytest.raises(ValueError, match=rf"^label amplitude must be finite, got {shown}$"):
            overlap(label(bad), label(0.5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_nonfinite_coefficient_rejected_at_construction(self, bad):
        # not later, as a NaN norm or an overflow warning in the first moment
        message = rf"^coefficient must be finite, got {re.escape(str(complex(bad)))}$"
        with pytest.raises(ValueError, match=message):
            SuperpositionState([(bad, label(1.0))])
        with pytest.raises(ValueError, match=message):
            SuperpositionState([(1.0, label(0.5)), (bad, label(0.5))])  # merged terms too

    def test_merged_coefficient_past_the_double_range_rejected(self):
        # two finite coefficients on one label whose sum overflows: refused, not stored as inf
        with pytest.raises(ValueError, match=r"^merged coefficient must be finite, got \(inf\+0j\)$"):
            SuperpositionState([(1.7e308, label(0.5)), (1.7e308, label(0.5))])

    def test_displaced_coefficient_past_the_double_range_rejected(self):
        # a finite coefficient that its phase factor carries past the double range
        with pytest.raises(ValueError, match=r"^coefficient must be finite, got \(.*\+infj\)$"):
            displace(SuperpositionState([(1.7e308 + 1.7e308j, label(1.0))]), [0.7j])

    def test_overflowing_kick_rejected_before_arithmetic(self):
        # finite labels and a finite kick whose sum leaves the double range
        with pytest.raises(ValueError, match=r"^displaced label amplitude must be finite, got \(inf\+0j\)$"):
            displace(make_entangled_cat(1e308, 1), [1e308])

    def test_huge_displacement_phase(self):
        # finite moved labels: the phase Im(beta conj(g)) ~ 1e400 is rejected,
        # and a zero phase whose unused real part overflows is not
        with pytest.raises(ValueError, match="displacement phase"):
            displace(make_entangled_cat(1e200, 1), [1e200j])
        moved = displace(make_entangled_cat(1e200, 1), [1e200])
        np.testing.assert_array_equal(moved.labels, [[2e200], [0.0]])
        np.testing.assert_array_equal(moved.coeffs, make_entangled_cat(1e200, 1).coeffs)

    def test_cancelled_state_has_no_norm(self):
        s = SuperpositionState([(1.0, label(0.7)), (-1.0, label(0.7))])
        with pytest.raises(DegenerateState):
            norm_squared(s)


class TestEntangledCat:
    @pytest.mark.parametrize("alpha,n", [(0.5, 1), (1.0, 1), (1.0, 3), (2.0, 2)])
    def test_norm_squared_closed_form(self, alpha, n):
        cat = make_entangled_cat(alpha, n)
        assert norm_squared(cat) == pytest.approx(
            1.0 + math.exp(-2.0 * n * alpha**2), rel=1e-13
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [1e154, 1e200, 1e308, 1.7976931348623157e308])
    def test_norm_squared_past_the_double_range(self, alpha, n):
        # the labels are 2 alpha apart in every mode, so the cross overlaps are exactly 0, as at
        # alpha = 30, where exp(-2 N alpha^2) already underflows
        far = make_entangled_cat(30.0, n)
        assert norm_squared(make_entangled_cat(alpha, n)) == norm_squared(far)

    def test_zero_amplitude_collapses_to_vacuum(self):
        for zero in (0.0, -0.0):
            cat = make_entangled_cat(zero, 2)
            assert len(cat) == 1
            assert cat.coeffs[0] == pytest.approx(math.sqrt(2.0))
            assert norm_squared(cat) == pytest.approx(2.0, rel=1e-14)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match=r"^alpha must be finite and >= 0, got -0.1$"):
            make_entangled_cat(-0.1, 2)

    def test_bad_mode_count_rejected(self):
        with pytest.raises(ValueError):
            make_entangled_cat(1.0, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_alpha_rejected(self, bad):
        with pytest.raises(ValueError, match=rf"^alpha must be finite and >= 0, got {bad}$"):
            make_entangled_cat(bad, 2)

    def test_variance_closed_form(self):
        # Var(G) = N (1 + 4 N a^2 / (1 + e^{-2 N a^2}))
        for alpha, n in [(0.3, 1), (1.0, 1), (0.8, 2), (1.0, 3)]:
            u = n * alpha**2
            expected = n * (1.0 + 4.0 * u / (1.0 + math.exp(-2.0 * u)))
            assert variance_generator(make_entangled_cat(alpha, n)) == pytest.approx(
                expected, rel=1e-12
            )

    def test_photon_number_closed_form(self):
        # n_tot = u tanh(u), u = N a^2; at a = N = 1 that is tanh(1)
        assert mean_photon_number(make_entangled_cat(1.0, 1)) == pytest.approx(
            math.tanh(1.0), abs=1e-14
        )
        for alpha, n in [(0.3, 1), (0.8, 2), (1.2, 3)]:
            u = n * alpha**2
            assert mean_photon_number(make_entangled_cat(alpha, n)) == pytest.approx(
                u * math.tanh(u), rel=1e-12
            )

    def test_generator_mean_vanishes(self):
        assert expect_generator(make_entangled_cat(1.3, 2)) == pytest.approx(0.0, abs=1e-12)


class TestDisplace:
    def test_phase_rule_single_term(self):
        # D(i eps)|a0> = e^{i eps a0} |a0 + i eps> for real a0
        a0, eps = 1.7, 0.3
        s = SuperpositionState([(1.0, label(a0))])
        d = displace(s, [1j * eps])
        (c,), ((lab,),) = d.coeffs, d.labels
        assert c == pytest.approx(cmath.exp(1j * eps * a0), rel=1e-14)
        assert lab == pytest.approx(a0 + 1j * eps)

    def test_wrong_kick_count(self):
        with pytest.raises(DimensionMismatch):
            displace(make_entangled_cat(1.0, 2), [0.1])

    @given(a=amp, b=st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False))
    def test_norm_preserved(self, a, b):
        s = SuperpositionState([(0.8, label(a)), (0.6, label(a + 2.0))])
        assert norm_squared(displace(s, [b])) == pytest.approx(norm_squared(s), rel=1e-11)

    @given(
        b1=st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
        b2=st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    )
    def test_composition_up_to_phase(self, b1, b2):
        s = make_entangled_cat(0.9, 1)
        two_step = displace(displace(s, [b1]), [b2])
        one_step = displace(s, [b1 + b2])
        fid = abs(inner(two_step, one_step)) ** 2 / (norm_squared(two_step) * norm_squared(one_step))
        assert fid == pytest.approx(1.0, abs=1e-11)

    @given(eps=st.floats(-1.0, 1.0))
    def test_imaginary_kick_leaves_generator_mean(self, eps):
        # D(i eps) shifts Y, not X: the generator mean must not move
        s = make_entangled_cat(1.1, 2)
        kicked = displace(s, [1j * eps] * 2)
        assert expect_generator(kicked) == pytest.approx(expect_generator(s), abs=1e-10)

    def test_real_kick_shifts_generator_mean(self):
        s = SuperpositionState([(1.0, label(0.4, -0.2))])
        kicked = displace(s, [0.25, 0.25])
        assert expect_generator(kicked) == pytest.approx(
            expect_generator(s) + 4 * 0.25, rel=1e-12
        )

    def test_matches_fock_oracle(self):
        s = make_entangled_cat(1.0, 2)
        beta = (0.2 + 0.1j, -0.15j)
        exact = coherent.displace(s, beta)
        dim = 30
        brute = fock.displace_fock(fock.to_fock(s, dim), beta)
        want = fock.to_fock(exact, dim)
        assert np.allclose(brute.amplitudes, want.amplitudes, atol=1e-10)


class TestMoments:
    def test_coherent_state_basics(self):
        a = 0.8 - 0.5j
        s = SuperpositionState([(1.0, label(a))])
        assert expect_generator(s) == pytest.approx(2 * a.real, rel=1e-13)
        assert variance_generator(s) == pytest.approx(1.0, rel=1e-12)
        assert mean_photon_number(s) == pytest.approx(abs(a) ** 2, rel=1e-13)

    def test_multimode_coherent_variance_adds(self):
        s = SuperpositionState([(1.0, label(0.5, -0.3j, 1.0))])
        assert variance_generator(s) == pytest.approx(3.0, rel=1e-12)

    def test_moments_past_the_double_range_raise(self):
        # refused by name, with no warning: the +-1e155 cat's <n> and Var(G), the 1e154 and 1e155
        # cats', and <G> = 6.8e308 of two terms moved to (1.7e308, 1.7e308), where they merge
        s = SuperpositionState([(1.0, label(1e155)), (1.0, label(-1e155))])
        with pytest.raises(ValueError, match=r"^<n> of the state is past the largest double$"):
            mean_photon_number(s)
        with pytest.raises(ValueError, match=r"^Var\(G\) of the state is past the largest double$"):
            variance_generator(s)
        with pytest.raises(ValueError, match=r"^Var\(G\) of the state is past the largest double$"):
            variance_generator(make_entangled_cat(1e154, 1))
        with pytest.raises(ValueError, match=r"^<n> of the state is past the largest double$"):
            mean_photon_number(make_entangled_cat(1e155, 1))
        with pytest.raises(ValueError, match=r"^<G> of the state is past the largest double$"):
            expect_generator(displace(make_entangled_cat(1.0, 2), [1.7e308, 1.7e308]))

    def test_degenerate_moment_raises(self):
        s = SuperpositionState([(1.0, label(1.0)), (-1.0, label(1.0 + 1e-13))])
        with pytest.raises(DegenerateState):
            expect_generator(s)

    def test_a_moment_below_zero_beyond_tolerance_is_refused(self):
        # no state found gives such a sum, so the refusal is fed one: -1e-6 is past -TOL_HERM
        with pytest.raises(ConsistencyError, match=r"^Var\(G\) = -1e-06 < 0 beyond tolerance$"):
            coherent._moment("Var(G)", -1e-6 + 0j)

    @given(
        a=small_amp,
        b=small_amp,
        c1=st.floats(0.2, 1.5),
        c2=st.floats(-1.5, 1.5),
    )
    def test_variance_nonnegative(self, a, b, c1, c2):
        s = SuperpositionState([(c1, label(a)), (c2 + 0.1j, label(b))])
        try:
            assert variance_generator(s) >= 0.0
            assert mean_photon_number(s) >= 0.0
        except DegenerateState:
            pass  # cancelling coefficients are a legitimate rejection

    @given(a=small_amp, b=small_amp, phase=st.floats(0.0, 2 * math.pi))
    def test_moments_against_fock_oracle(self, a, b, phase):
        c2 = 0.7 * cmath.exp(1j * phase)
        s = SuperpositionState([(1.0, label(a)), (c2, label(b))])
        try:
            exact_var = variance_generator(s)
            exact_n = mean_photon_number(s)
        except DegenerateState:
            return
        dim = fock.recommended_dim(max(abs(a), abs(b)))
        psi = fock.to_fock(s, dim)
        x = fock.quad_x(dim)
        assert fock.variance(psi, x) == pytest.approx(exact_var, rel=1e-9, abs=1e-9)
        assert fock.expectation(psi, fock.number_operator(dim)) == pytest.approx(
            exact_n, rel=1e-9, abs=1e-9
        )

    def test_inner_matches_fock(self):
        s = make_entangled_cat(0.9, 2)
        t = displace(s, (0.3, -0.2j))
        exact = inner(s, t)
        dim = 26
        brute = np.vdot(fock.to_fock(s, dim).amplitudes, fock.to_fock(t, dim).amplitudes)
        assert brute == pytest.approx(exact, abs=1e-10)

    @given(s=free_states())
    def test_variance_under_the_photon_budget_ceiling(self, s):
        # G = sqrt(M) X_s for the symmetric mode a_s, whose photons n_s <= n, and
        # Var(X_s) <= 2 n_s + 1 + 2 |<a_s^2>| <= (sqrt(n_s) + sqrt(n_s + 1))^2
        try:
            var, n = variance_generator(s), mean_photon_number(s)
        except DegenerateState:
            assume(False)
        assert var <= s.mode_count * (math.sqrt(n) + math.sqrt(n + 1)) ** 2 * (1 + 1e-12)


class TestTranslationInvariance:
    def test_far_displaced_coherent_state(self):
        # E[G^2] - E[G]^2 cancelled to exactly 0 here
        s = displace(SuperpositionState([(1.0, label(0.0))]), [1e8])
        assert variance_generator(s) == pytest.approx(1.0, rel=1e-12)
        assert expect_generator(s) == pytest.approx(2e8, rel=1e-15)
        assert mean_photon_number(s) == pytest.approx(1e16, rel=1e-15)

    def test_far_displaced_cat(self):
        cat = make_entangled_cat(1.0, 3)
        moved = displace(cat, [1e6] * 3)
        assert variance_generator(moved) == pytest.approx(
            variance_generator(cat), rel=1e-12
        )

    @given(
        terms=separated_terms(),
        log_beta=st.floats(-2.0, 8.0),
        phases=st.lists(st.floats(0.0, 2 * math.pi), min_size=6, max_size=6),
    )
    def test_variance_unchanged_by_displacement(self, terms, log_beta, phases):
        s = SuperpositionState([(c, label(*amps)) for c, amps in terms])
        beta = 10.0**log_beta
        moved = displace(s, [beta * cmath.exp(1j * p) for p in phases[: s.mode_count]])
        # a label at |beta| is stored to ulp(beta) / 2, so each displaced term
        # sits up to ~1e-16 |beta| off its exact place and Var(G) moves by that
        # much to first order: 4.5e-16 |beta| was the worst of 2e4 random states
        tol = 1e-12 + 4e-15 * beta
        assert variance_generator(moved) == pytest.approx(variance_generator(s), rel=tol)

    @given(
        terms=separated_terms(),
        offset=st.floats(10.0, 1e6),
        data=st.data(),
    )
    def test_moments_independent_of_term_order(self, terms, offset, data):
        # labels far from the origin: a moment that cancels against the mean
        # comes out different for each summation order
        shifted = [(c, label(*(a + offset for a in amps))) for c, amps in terms]
        s = SuperpositionState(shifted)
        t = SuperpositionState(data.draw(st.permutations(shifted)))
        assert expect_generator(t) == pytest.approx(expect_generator(s), rel=1e-12)
        assert variance_generator(t) == pytest.approx(variance_generator(s), rel=1e-12)
        assert mean_photon_number(t) == pytest.approx(mean_photon_number(s), rel=1e-12)


def compass(alpha, modes=1, rotation=1.0):
    """sum_{k=0..3} |i^k alpha>, the same label on each of `modes` modes, all turned by `rotation`."""
    return SuperpositionState([(1.0, label(*[rotation * 1j**k * alpha] * modes)) for k in range(4)])


class TestCompassState:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_moments_match_closed_form(self, alpha):
        # <a^2> = 0 on the compass, so Var(X) = 1 + 2n
        x = alpha * alpha
        s = compass(alpha)
        n = mean_photon_number(s)
        want_n = x * (math.sinh(x) - math.sin(x)) / (math.cosh(x) + math.cos(x))
        assert n == pytest.approx(want_n, rel=1e-12)
        assert variance_generator(s) == pytest.approx(1.0 + 2.0 * n, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("theta", [math.pi / 2, 0.3])
    def test_rotation_leaves_the_variance(self, alpha, theta):
        turned = compass(alpha, rotation=cmath.exp(-1j * theta))
        assert variance_generator(turned) == pytest.approx(variance_generator(compass(alpha)), rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_two_modes_fold_into_the_symmetric_mode(self, alpha):
        one = variance_generator(compass(math.sqrt(2.0) * alpha))
        assert variance_generator(compass(alpha, modes=2)) == pytest.approx(2.0 * one, rel=1e-12)


class TestKickedCatParity:
    @given(n=st.sampled_from([1, 2, 3]), alpha=st.floats(0.1, 2.0), eps=st.floats(0.0, 0.5))
    def test_parity_matches_closed_form(self, n, alpha, eps):
        # parity flips the sign of every label: <P> = <s|Ps> / <s|s>
        s = displace(make_entangled_cat(alpha, n), [1j * eps] * n)
        flipped = SuperpositionState([(c, label(*(-amps))) for c, amps in zip(s.coeffs, s.labels)])
        want = (math.exp(-2 * n * eps * eps) * math.cos(4 * n * alpha * eps)
                + math.exp(-2 * n * (alpha * alpha + eps * eps))) / (1.0 + math.exp(-2 * n * alpha * alpha))
        assert inner(s, flipped).real / norm_squared(s) == pytest.approx(want, abs=1e-13)
