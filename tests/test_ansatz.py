"""Coefficient construction, vertical polynomials, and their time rates."""
import dataclasses
from collections import Counter

import numpy as np
import pytest

from conftest import loglog_slope, split_tendency, stacked_state
from thinlayer import chebyshev as cheb
from thinlayer import ansatz
from thinlayer.grids import Grid, HField, _spec_to_fine, div, from_fine, grad, nonlinear, to_fine
from thinlayer.norms import norm
from thinlayer.shallow_water import Params, sw_rhs, sw_step, sym_grad
from thinlayer.thinfields import Strip
from thinlayer.ansatz import (
    AnsatzFields,
    AnsatzRate,
    ZPoly,
    _coefficients,
    ansatz_rate,
    build_ansatz,
)

P = Params(F=1.0, Re=2.0, gamma_bar=0.5, eps=0.1)


def _state(grid, h_fn, u_fns, t=0.0):
    h0 = HField.from_function(grid, h_fn)
    u0 = HField.stack([HField.from_function(grid, f) for f in u_fns])
    return stacked_state(t, h0, u0)


def _point_values(a, j, z):
    """(u_H components, u_V, p) at node j and height z."""
    polys = [*a.velocity_polys, a.pressure_poly()]
    return [q.at_z(z).values[j] for q in polys]


def _wavy_state(N=64):
    g = Grid(1, N)
    return _state(
        g,
        lambda x: 1.0 + 0.3 * np.cos(x) + 0.1 * np.sin(2 * x),
        [lambda x: 0.2 * np.sin(x) + 0.05 * np.cos(3 * x)],
    )


def _sample_state(n, N):
    if n == 1:
        return _wavy_state(N)
    return _state(
        Grid(2, N),
        lambda x, y: 1.0 + 0.05 * np.cos(x) + 0.03 * np.sin(y),
        [lambda x, y: 0.02 * np.sin(x + y), lambda x, y: 0.01 * np.cos(x) + 0.0 * y],
    )


# -- ZPoly algebra ------------------------------------------------------------


def test_zpoly_validation():
    g = Grid(1, 16)
    with pytest.raises(ValueError):
        ZPoly.stack([])
    with pytest.raises(ValueError):
        ZPoly.stack([HField(g, np.zeros((1, 16)))])  # vector coefficient
    with pytest.raises(ValueError):
        ZPoly.stack([HField(g, np.zeros(16)), HField(Grid(1, 32), np.zeros(32))])


def test_zpoly_product_matches_pointwise():
    g = Grid(1, 32)
    x = g.nodes
    p = ZPoly.stack([HField(g, np.cos(x)), HField(g, np.sin(x))])
    q = ZPoly.stack([HField(g, 1.0 + 0.5 * np.sin(2 * x)), HField(g, np.cos(x))])
    r = p * q
    assert len(r.c.values) == 3
    for z in (0.0, 0.3, 1.7):
        want = (np.cos(x) + z * np.sin(x)) * (1.0 + 0.5 * np.sin(2 * x) + z * np.cos(x))
        assert np.abs(r.at_z(z).values - want).max() < 1e-13


def _fields(p):
    """The coefficients of p as separate scalar fields, lowest power first."""
    return [HField(p.c.grid, v) for v in p.c.values]


def _pairwise_product(p, q):
    """Product one dealiased HField pair at a time, summed in (i, j) order."""
    g = p.c.grid
    out = [HField(g, np.zeros(g.shape)) for _ in range(len(p.c.values) + len(q.c.values) - 1)]
    for i, a in enumerate(_fields(p)):
        for j, b in enumerate(_fields(q)):
            out[i + j] = out[i + j] + a * b
    return out


def _padded_horner(p, eta):
    """at_height with every coefficient padded on its own."""
    fine = [to_fine(c) for c in _fields(p)]
    e = to_fine(eta)
    acc = fine[-1]
    for c in reversed(fine[:-1]):
        acc = acc * e + c
    return from_fine(p.c.grid, acc)


@pytest.mark.parametrize("n, N", [(1, 32), (2, 16)])
def test_zpoly_product_matches_pairwise_hfield_products(n, N):
    # the batched product and padding must not move a single bit
    g = Grid(n, N)
    rng = np.random.default_rng(7)

    def poly(degree):
        return ZPoly.stack([HField(g, rng.standard_normal(g.shape)) for _ in range(degree + 1)])

    for dp, dq in ((3, 3), (3, 4), (1, 4)):
        p, q = poly(dp), poly(dq)
        got = p * q
        want = _pairwise_product(p, q)
        assert len(got.c.values) == dp + dq + 1
        for a, b in zip(got.c.values, want):
            assert (a == b.values).all()
        eta = HField(g, 0.1 + 0.01 * rng.standard_normal(g.shape))
        assert (p.at_height(eta).values == _padded_horner(p, eta).values).all()


def _all_pairs_product(p, q):
    """ZPoly product with every coefficient pair dealiased in one batched
    projection, then summed one pair at a time in (i, j) order."""
    g = p.c.grid
    m, k = len(p.c.values), len(q.c.values)
    fine = _spec_to_fine(g, np.stack([c.spec for c in _fields(p) + _fields(q)]))
    pairs = (fine[:m, None] * fine[None, m:]).reshape((m * k,) + fine.shape[1:])
    prods = from_fine(g, pairs).values.reshape((m, k) + g.shape)
    out = np.zeros((m + k - 1,) + g.shape)
    for i in range(m):
        for j in range(k):
            out[i + j] += prods[i, j]
    return out


def _band_limited_poly(g, rng, degree):
    """A ZPoly whose coefficients are random fields inside the 2/3 band."""
    return ZPoly.stack(
        [HField(g, rng.standard_normal(g.shape)).mask_two_thirds() for _ in range(degree + 1)]
    )


@pytest.mark.parametrize("n, N", [(1, 64), (2, 32)])
def test_zpoly_product_matches_all_pairs_batch(n, N):
    # dealiasing one row of pairs at a time must not move a single bit
    g = Grid(n, N)
    rng = np.random.default_rng(10 * n + N)
    for dp, dq in ((3, 4), (4, 4)):
        p, q = _band_limited_poly(g, rng, dp), _band_limited_poly(g, rng, dq)
        got = (p * q).c.values
        assert np.array_equal(got, _all_pairs_product(p, q))


def _out_of_place_samples(p, strip):
    """to_thinfield with a fresh array at every Horner step."""
    z = strip.z
    acc = np.zeros(z.shape) + p.c.values[-1]
    for c in p.c.values[-2::-1]:
        acc = acc * z + c
    return acc


def test_zpoly_to_thinfield_matches_out_of_place_horner():
    # the in-place Horner must not move a single bit
    g = Grid(2, 32)
    rng = np.random.default_rng(5)
    h0 = HField.from_function(g, lambda x, y: 1.0 + 0.2 * np.cos(x) + 0.1 * np.sin(2 * y))
    strip = Strip(g, 0.05, 24, h0)
    for degree in (0, 3, 6):
        p = _band_limited_poly(g, rng, degree)
        assert np.array_equal(p.to_thinfield(strip).values, _out_of_place_samples(p, strip))


# The list form of the ZPoly calculus, one HField per coefficient: the
# reference the stacked rows must match bit for bit.


def _list_sum(a, b):
    """Coefficient-wise sum; the longer operand's tail is kept as it is."""
    return [p + q for p, q in zip(a, b)] + a[len(b):] + b[len(a):]


def _list_dz(a):
    if len(a) == 1:
        return [HField.constant(a[0].grid, 0.0)]
    return [(k + 1.0) * c for k, c in enumerate(a[1:])]


def _list_samples(a, strip):
    """to_thinfield in place on one array, one coefficient field at a time."""
    acc = np.zeros(strip.z.shape)
    acc += a[-1].values
    for c in reversed(a[:-1]):
        acc *= strip.z
        acc += c.values
    return acc


def _same(got, want):
    """Equal values with equal signs, so -0.0 is told from 0.0."""
    got = got.c.values if isinstance(got, ZPoly) else got
    want = np.stack([c.values for c in want]) if isinstance(want, list) else want
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("n, N", [(1, 32), (2, 16)])
def test_zpoly_stack_matches_list_form_bit_for_bit(n, N):
    # sum, scalar product, dz, dx and to_thinfield on the stacked rows must
    # not move a single bit against the same operations field by field
    g = Grid(n, N)
    rng = np.random.default_rng(20 + 10 * n + N)
    fields = [HField(g, rng.standard_normal(g.shape)) for _ in range(5)]
    fields[4] = HField(g, -np.abs(fields[4].values) * (fields[4].values < 0))  # -0.0 and < 0
    assert np.signbit(fields[4].values[fields[4].values == 0.0]).all()
    short, long_ = fields[:2], fields[1:]
    p, q = ZPoly.stack(short), ZPoly.stack(long_)
    assert _same(p + q, _list_sum(short, long_))
    assert _same(q + p, _list_sum(long_, short))
    assert _same(0.3 * q, [c * 0.3 for c in long_]) and _same(q * -2.5, [c * -2.5 for c in long_])
    const = ZPoly.stack(fields[4:])
    for poly, rows in ((q, long_), (const, fields[4:])):
        assert _same(poly.dz(), _list_dz(rows))
        for axis in range(n):
            assert _same(poly.dx(axis), [c.dx(axis) for c in rows])
    h0 = HField(g, 1.0 + 0.2 * np.abs(rng.standard_normal(g.shape)))
    strip = Strip(g, 0.05, 8, h0)
    for poly, rows in ((p, short), (q, long_), (const, fields[4:])):
        assert _same(poly.to_thinfield(strip).values, _list_samples(rows, strip))


def test_zpoly_calculus():
    g = Grid(1, 32)
    x = g.nodes
    # f(x, z) = sin(x) z^2
    zero = HField(g, np.zeros(32))
    f = ZPoly.stack([zero, zero, HField(g, np.sin(x))])
    assert np.abs(f.dz().at_z(0.5).values - np.sin(x)).max() < 1e-14
    assert np.abs(f.dx(0).at_z(2.0).values - 4 * np.cos(x)).max() < 1e-13
    assert len(f.dz().dz().dz().c.values) == 1
    assert np.abs(f.dz().dz().dz().at_z(1.0).values).max() == 0.0


def test_zpoly_at_height_matches_nodal_horner():
    g = Grid(1, 64)
    x = g.nodes
    coeffs = [np.cos(x), np.sin(2 * x), 0.25 + 0.0 * x]
    p = ZPoly.stack([HField(g, c + np.zeros(64)) for c in coeffs])
    eta = 0.1 * (1.0 + 0.3 * np.cos(x))
    want = coeffs[0] + coeffs[1] * eta + coeffs[2] * eta**2
    got = p.at_height(HField(g, eta))
    assert np.abs(got.values - want).max() < 1e-12


def test_zpoly_to_thinfield_samples():
    g = Grid(1, 16)
    x = g.nodes
    h0 = HField(g, 1.0 + 0.2 * np.cos(x))
    zero = HField(g, np.zeros(16))
    p = ZPoly.stack([zero, HField(g, np.sin(x))])  # f = sin(x) z
    tf = p.to_thinfield(Strip(g, 0.1, 6, h0))
    z = cheb.gl_nodes(6).reshape(6, 1) * (0.1 * h0.values)
    assert np.abs(tf.values - np.sin(x) * z).max() < 1e-14


# -- construction examples ----------------------------------------------------


def test_build_equilibrium():
    g = Grid(1, 32)
    a = build_ansatz(_state(g, lambda x: 1.0 + 0.0 * x, [lambda x: 0.0 * x]), P)
    for f in (a.u1, a.u2, a.w1, a.w2, a.w3, a.p_nonhydro):
        assert np.abs(f.values).max() < 1e-14
    *uH, uV, pres = _point_values(a, 3, 0.03)
    assert np.abs(uH).max() == 0.0 and uV == 0.0
    assert abs(pres - (P.eps - 0.03)) < 1e-15


def test_build_uniform_flow():
    g = Grid(1, 32)
    c = 0.7
    a = build_ansatz(_state(g, lambda x: 1.0 + 0.0 * x, [lambda x: c + 0.0 * x]), P)
    assert np.abs(a.u1.values - P.eps * P.gamma_bar * c).max() < 1e-14
    assert np.abs(a.u2.values + P.gamma_bar * c).max() < 1e-14
    for f in (a.w1, a.w2, a.w3, a.p_nonhydro):
        assert np.abs(f.values).max() < 1e-14


def test_build_resting_bump():
    g = Grid(1, 32)
    aamp = 0.2
    a = build_ansatz(_state(g, lambda x: 1.0 + aamp * np.cos(x), [lambda x: 0.0 * x]), P)
    for f in (a.u1, a.u2, a.w1, a.w2, a.w3, a.p_nonhydro):
        assert np.abs(f.values).max() < 1e-14
    pres = a.pressure_poly().at_z(0.01).values[0]
    assert abs(pres - (P.eps * (1 + aamp) - 0.01)) < 1e-15


# -- structural invariants ------------------------------------------------------


def test_divergence_identity_on_thin_grid():
    s = _wavy_state()
    a = build_ansatz(s, P)
    h1, v = a.velocity_polys
    divpoly = h1.dx(0) + v.dz()
    tf = divpoly.to_thinfield(Strip(s.grid, P.eps, 10, s.h0))
    assert norm(tf, "Linf") < 1e-11


def test_divergence_identity_2d():
    g = Grid(2, 16)
    s = _state(
        g,
        lambda x, y: 1.0 + 0.1 * np.cos(x) + 0.05 * np.sin(y),
        [lambda x, y: 0.1 * np.sin(x + y), lambda x, y: 0.05 * np.cos(y) + 0.0 * x],
    )
    a = build_ansatz(s, P)
    h1, h2, v = a.velocity_polys
    divpoly = h1.dx(0) + h2.dx(1) + v.dz()
    tf = divpoly.to_thinfield(Strip(g, P.eps, 8, s.h0))
    assert norm(tf, "Linf") < 1e-11


def test_bottom_slip_identity():
    a = build_ansatz(_wavy_state(), P)
    assert np.abs(a.u1.values - P.eps * P.gamma_bar * a.u0.values).max() == 0.0
    assert np.abs(a.velocity_polys[-1].c.values[0]).max() == 0.0


def test_eps_scaling():
    s = _wavy_state()
    p1 = Params(F=1.0, Re=2.0, gamma_bar=0.0, eps=0.05)
    p2 = Params(F=1.0, Re=2.0, gamma_bar=0.0, eps=0.10)
    a1, a2 = build_ansatz(s, p1), build_ansatz(s, p2)
    assert np.abs(a2.u1.values - 2.0 * a1.u1.values).max() < 1e-15
    assert np.abs(a2.p_nonhydro.values - 2.0 * a1.p_nonhydro.values).max() < 1e-14


# -- time rates ---------------------------------------------------------------


def test_rate_equilibrium_zero():
    g = Grid(1, 32)
    r, _ = ansatz_rate(_state(g, lambda x: 1.0 + 0.0 * x, [lambda x: 0.0 * x]), P)
    for f in (r.h0, r.u0, r.u1, r.u2, r.w1, r.w2, r.w3, r.p_nonhydro):
        assert np.abs(f.values).max() < 1e-14


def test_rate_u1_linearity():
    s = _wavy_state()
    r, _ = ansatz_rate(s, P)
    assert np.abs(r.u1.values - P.eps * P.gamma_bar * r.u0.values).max() == 0.0


def test_rate_matches_finite_difference():
    """Central difference of rebuilt coefficients converges to the rate."""
    g = Grid(1, 32)
    p = Params(F=1.0, Re=100.0, gamma_bar=0.5, eps=0.1)
    s0 = _state(
        g,
        lambda x: 1.0 + 0.05 * np.cos(x),
        [lambda x: 0.02 * np.sin(x)],
    )
    names = ("u0", "u1", "u2", "w1", "w2", "w3", "p_nonhydro", "h0")
    errs = []
    dts = [0.04, 0.02, 0.01]
    for dt in dts:
        s1 = sw_step(s0, p, dt)
        s2 = sw_step(s1, p, dt)
        a0, a2 = build_ansatz(s0, p), build_ansatz(s2, p)
        rate, _ = ansatz_rate(s1, p)
        worst = 0.0
        for nm in names:
            f0 = a0.base.h0 if nm == "h0" else getattr(a0, nm)
            f2 = a2.base.h0 if nm == "h0" else getattr(a2, nm)
            fd = (f2.values - f0.values) / (2.0 * dt)
            worst = max(worst, np.abs(fd - getattr(rate, nm).values).max())
        errs.append(worst)
    assert loglog_slope(dts, errs) >= 1.9


@pytest.mark.parametrize("n, N", [(1, 32), (2, 16)])
def test_at_is_a_fresh_build_bit_for_bit(n, N):
    """a.at(eps) and its rate equal build_ansatz at that eps in every field,
    and share with a every field that does not depend on eps."""
    s = _sample_state(n, N)
    a = build_ansatz(s, P)
    for eps in (P.eps, 0.05, 0.0125):
        moved = a.at(eps)
        fresh = build_ansatz(s, dataclasses.replace(P, eps=eps))
        assert moved.base is s and moved.params == fresh.params
        for f in dataclasses.fields(AnsatzFields):
            if f.name not in ("base", "params", "rate"):
                assert np.array_equal(getattr(moved, f.name).values, getattr(fresh, f.name).values)
        for f in dataclasses.fields(AnsatzRate):
            want = getattr(fresh.rate, f.name).values
            assert np.array_equal(getattr(moved.rate, f.name).values, want), f.name
        for name in ("u0", "u2", "w1", "w3"):
            assert getattr(moved, name) is getattr(a, name)
            assert getattr(moved.rate, name) is getattr(a.rate, name)
        assert moved.rate.h0 is a.rate.h0


def _two_pass_stress_vec(u, gh):
    """(D(u) + 2 div u Id) gh with D(u) and div u formed from u on each call."""
    D, divu = sym_grad(u), div(u)
    rows = []
    for i in range(u.grid.n):
        acc = D[i][0] * gh.component(0)
        for a in range(1, u.grid.n):
            acc = acc + D[i][a] * gh.component(a)
        rows.append(acc + 2.0 * (divu * gh.component(i)))
    return HField.stack(rows)


@pytest.mark.parametrize("n, N", [(1, 32), (2, 16)])
def test_one_stress_vector_matches_two_pass_build_bit_for_bit(n, N):
    """The ansatz and its rate equal a build that forms A once for the rate
    and once more for u2's own quotient, with one quotient pass each."""
    s = _sample_state(n, N)
    h0, u0 = s.h0, s.u0
    dth0, dtu0 = split_tendency(sw_rhs(s, P))
    A = _two_pass_stress_vec(u0, grad(h0)) - P.gamma_bar * u0
    dA = (
        _two_pass_stress_vec(dtu0, grad(h0))
        + _two_pass_stress_vec(u0, grad(dth0))
        - P.gamma_bar * dtu0
    )
    dquot = nonlinear(s.grid, lambda a, da, h, dh: da / h - a * dh / (h * h), A, dA, h0, dth0)
    A = _two_pass_stress_vec(u0, grad(h0)) - P.gamma_bar * u0
    quot = nonlinear(s.grid, lambda a, h: a / h, A, h0)
    want = {"u0": u0, **_coefficients(u0, quot, P)}
    want_rate = {"h0": dth0, "u0": dtu0, **_coefficients(dtu0, dquot, P)}

    a = build_ansatz(s, P)
    for f in dataclasses.fields(AnsatzFields):
        if f.name not in ("base", "params", "rate"):
            assert np.array_equal(getattr(a, f.name).values, want[f.name].values), f.name
    for f in dataclasses.fields(AnsatzRate):
        assert np.array_equal(getattr(a.rate, f.name).values, want_rate[f.name].values), f.name
    assert np.array_equal(ansatz_rate(s, P)[1].values, quot.values)


def test_build_forms_the_stress_vector_once(monkeypatch):
    """One build: one tendency, D of u0 and of dt u0 once each, A, dA's two
    terms, and one quotient pass for A/h0 and its rate together."""
    counts = Counter()
    for name in ("sw_rhs", "sym_grad", "_stress_vec", "nonlinear"):
        def counted(*args, _fn=getattr(ansatz, name), _name=name):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(ansatz, name, counted)
    build_ansatz(_sample_state(2, 16), P)
    assert counts == {"sw_rhs": 1, "sym_grad": 2, "_stress_vec": 3, "nonlinear": 1}


# -- point evaluation -----------------------------------------------------------


def test_eval_horner_matches_naive():
    g = Grid(1, 16)
    rng = np.random.default_rng(11)
    s = _state(g, lambda x: 1.0 + 0.0 * x, [lambda x: 0.0 * x])
    a = AnsatzFields(
        s,
        P,
        *(HField(g, rng.standard_normal((1, 16))) for _ in range(3)),
        *(HField(g, rng.standard_normal(16)) for _ in range(4)),
        ansatz_rate(s, P)[0],
    )
    z = 0.09
    for j in range(0, 16, 3):
        *uH, uV, pres = _point_values(a, j, z)
        naive_H = a.u0.values[0, j] + a.u1.values[0, j] * z + a.u2.values[0, j] * z**2 / 2
        naive_V = a.w1.values[j] * z + a.w2.values[j] * z**2 / 2 + a.w3.values[j] * z**3 / 6
        naive_p = P.eps + a.p_nonhydro.values[j] - z
        assert abs(uH[0] - naive_H) < 1e-14
        assert abs(uV - naive_V) < 1e-14
        assert abs(pres - naive_p) < 1e-14
