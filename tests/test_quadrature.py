"""The doubling trapezoid rule (zetafn.trapezoid_mean) as the sum rule's
quadratures drive it: accuracy of the extrapolated stop, level count against
the plain |I_k - I_(k-1)| < tol stop, and the level cap.  Then the split of
each level between this process and a forked child: values bit for bit the
in-process ones, the in-process exception, and no child left behind."""

import marshal
import os
from types import SimpleNamespace

import pytest

from zetasum import sumrule as sr
from zetasum import zetafn
from zetasum.zetafn import PrecisionError, _from_raw, _raw, engine_for, trapezoid_mean

# the criterion-04 parameter pairs
CONTOUR_PAIRS = (("0.5", "0.5"), ("2", "0.25"), ("0.9", "0.75"))
# whether trapezoid_mean forks here: it needs a second CPU in the affinity mask
SPLITS = len(getattr(os, "sched_getaffinity", lambda pid: {0})(0)) > 1


def one_cpu(monkeypatch):
    """Make every trapezoid_mean call evaluate in process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


@pytest.fixture()
def recorded(monkeypatch):
    """Every trapezoid_mean call sumrule makes, with its memoized integrand
    and the node count it stopped at.  The calls run in process, so the memo
    sees every node: a forked child's evaluations never reach it."""
    one_cpu(monkeypatch)
    calls = []

    def recording(g, ctx, n, tol, scale, failure, periodic=False, max_doublings=20):
        cache = {}

        def memo(u):
            if u not in cache:
                cache[u] = g(u)
            return cache[u]

        value = trapezoid_mean(memo, ctx, n, tol, scale, failure, periodic, max_doublings)
        n_final = len(cache) if periodic else len(cache) - 1
        # the memo holds the whole final grid, not a share of its nodes
        assert set(cache) == {ctx.mp.mpf(j) / n_final for j in range(len(cache))}
        calls.append(SimpleNamespace(g=memo, ctx=ctx, n=n, tol=tol, scale=scale,
                                     periodic=periodic, n_final=n_final, value=value))
        return value

    monkeypatch.setattr(sr, "trapezoid_mean", recording)
    return calls


def reference_levels(call, extra):
    """Scaled trapezoid values from call.n up to call.n_final * 2^extra
    points, all taken from one evaluation of the finest grid."""
    mp = call.ctx.mp
    depth = (call.n_final // call.n).bit_length() - 1 + extra
    n_fine = call.n << depth
    nodes = n_fine if call.periodic else n_fine + 1
    vals = [call.g(mp.mpf(j) / n_fine) for j in range(nodes)]
    levels = []
    for level in range(depth + 1):
        n = call.n << level
        sub = vals[::n_fine // n]
        total = sum(sub) if call.periodic else (sub[0] + sub[-1]) / 2 + sum(sub[1:-1])
        levels.append(call.scale * total / n)
    return levels


def plain_stop_level(levels, tol):
    """Level at which the |I_k - I_(k-1)| < tol rule stops (None: not within levels)."""
    for k in range(1, len(levels)):
        if abs(levels[k] - levels[k - 1]) < tol:
            return k
    return None


def check_call(call):
    levels = reference_levels(call, extra=2)
    stop = len(levels) - 3  # the level trapezoid_mean stopped at
    # the stopped value agrees with the value two levels deeper
    assert abs(call.value - levels[-1]) < call.tol
    # and the plain rule never stops earlier
    plain = plain_stop_level(levels, call.tol)
    assert plain is None or stop <= plain
    return stop, plain


@pytest.mark.parametrize("a,x", CONTOUR_PAIRS)
def test_contour_stop_is_accurate_and_no_later(ctx96, recorded, a, x):
    sr.contour_integral(sr.SumRuleParams(a=a, x=x), ctx96)
    (call,) = recorded
    assert not call.periodic and call.n == 32 and call.tol == ctx96.target_tol
    stop, plain = check_call(call)
    # the integrand is analytic: the extrapolated stop saves the confirming level
    assert plain is None or stop < plain


def test_residue_stops_are_accurate_and_no_later(ctx96, store30_96, recorded):
    params = sr.SumRuleParams(a="0.5", x="0.5", n_zeros=2, n_trivial=2, n_halfint=1)
    catalog = sr.pole_catalog(params, store30_96, ctx96)
    for site in catalog:
        sr.numeric_residue(site, params, ctx96, catalog, store=store30_96)
    assert len(recorded) == len(catalog) == 8
    for call in recorded:
        assert call.periodic and call.n == 8
        check_call(call)


def test_level_cap_raises_precision_error(ctx96):
    mp = ctx96.mp
    kink = mp.mpf(1) / 3  # |u - 1/3| converges only like h^2

    with pytest.raises(PrecisionError, match="kink did not settle"):
        trapezoid_mean(lambda u: abs(u - kink), ctx96, 8, ctx96.target_tol, 1,
                       "kink did not settle", periodic=True, max_doublings=4)


def test_exact_levels_stop_at_once(ctx96):
    # the periodic rule is exact for a trigonometric polynomial of low degree
    mp = ctx96.mp
    got = trapezoid_mean(lambda u: mp.cospi(2 * u) ** 2, ctx96, 8, ctx96.target_tol, 2,
                         "not exact", periodic=True, max_doublings=1)
    assert abs(got - 1) < ctx96.target_tol


# -- the two-process split -------------------------------------------------------


@pytest.fixture()
def forks(monkeypatch):
    """The pids of the children this process forks."""
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def split_and_in_process(monkeypatch, fn):
    """(fn() as trapezoid_mean splits it here, fn() with one CPU)."""
    split = fn()
    with monkeypatch.context() as m:
        one_cpu(m)
        return split, fn()


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("a,x", [CONTOUR_PAIRS[0], CONTOUR_PAIRS[2]])
def test_contour_split_is_bit_for_bit(ctx96, monkeypatch, forks, a, x):
    params = sr.SumRuleParams(a=a, x=x)
    split, alone = split_and_in_process(monkeypatch, lambda: sr.contour_integral(params, ctx96))
    assert _raw(split) == _raw(alone)
    assert len(forks) == SPLITS
    assert_no_child()


def test_residues_and_circle_derivative_split_bit_for_bit(ctx96, store30_96, monkeypatch, forks):
    params = sr.SumRuleParams(a="0.5", x="0.5", n_zeros=2, n_trivial=2, n_halfint=1)
    catalog = sr.pole_catalog(params, store30_96, ctx96)
    sites = list({site.family: site for site in catalog}.values())
    assert len(sites) == 4  # trivial, half-integer, zero and conjugate zero

    def values():
        out = [sr.numeric_residue(site, params, ctx96, catalog, store=store30_96)
               for site in sites]
        return out + [engine_for(ctx96).zeta_deriv(ctx96.mpf("0.01"))]  # cauchy_deriv

    split, alone = split_and_in_process(monkeypatch, values)
    assert [_raw(v) for v in split] == [_raw(v) for v in alone]
    assert len(forks) == 5 * SPLITS


def cos_sq_levels(mp):
    """Node lists of the periodic rule from 8 points, up to 16."""
    return [mp.mpf(j) / 8 for j in range(8)], [mp.mpf(2 * j + 1) / 16 for j in range(8)]


class Mpz(int):
    """An integer marshal cannot write, as gmpy2.mpz, the mantissa type of
    mpmath's gmpy backend, is one."""


def with_mpz(mp, v):
    """v with its mantissa an Mpz."""
    s, m, e, bc = v._mpf_
    return mp.make_mpf((s, Mpz(m), e, bc))


def test_raw_form_takes_a_mantissa_marshal_cannot_write(ctx96, monkeypatch):
    mp = ctx96.mp
    x, y = with_mpz(mp, mp.mpf(1) / 3), with_mpz(mp, -mp.pi)
    with pytest.raises(ValueError):
        marshal.dumps(x._mpf_)
    monkeypatch.setattr(zetafn, "MPZ", Mpz)  # as if Mpz were the backend's mantissa type
    for v in (x, mp.make_mpc((x._mpf_, y._mpf_))):
        back = _from_raw(mp, marshal.loads(marshal.dumps(_raw(v))))
        assert back == v and _raw(back) == _raw(v)
        parts = back._mpc_ if hasattr(back, "_mpc_") else (back._mpf_,)
        assert all(type(m) is Mpz for _, m, _, _ in parts)


@pytest.mark.parametrize("mpz", [False, True], ids=["int", "mpz"])
def test_child_takes_the_odd_nodes(ctx96, forks, mpz):
    mp = ctx96.mp
    seen = []

    def g(u):
        seen.append(u)
        v = mp.cospi(2 * u) ** 2
        return with_mpz(mp, v) if mpz else v  # mpz: the child must still send it

    got = trapezoid_mean(g, ctx96, 8, ctx96.target_tol, 2, "not exact",
                         periodic=True, max_doublings=1)
    assert abs(got - 1) < ctx96.target_tol
    first, second = cos_sq_levels(mp)
    assert seen == (first[::2] + second[::2] if SPLITS else first + second)
    assert len(forks) == SPLITS
    assert_no_child()


@pytest.mark.parametrize("bad,first_bad", [
    ((1, 2), 1),  # an odd node (the child's), then a later even node (this process's)
    ((3,), 3),
    ((2,), 2),
])
def test_exception_is_the_in_process_one(ctx96, monkeypatch, forks, bad, first_bad):
    mp = ctx96.mp
    bad = {mp.mpf(j) / 8 for j in bad}

    def g(u):
        if u in bad:
            raise ValueError(f"g fails at {u}")
        return mp.cospi(2 * u)

    def run():
        with pytest.raises(ValueError) as info:
            trapezoid_mean(g, ctx96, 8, ctx96.target_tol, 1, "unused", periodic=True)
        return str(info.value)

    split, alone = split_and_in_process(monkeypatch, run)
    assert split == alone == f"g fails at {mp.mpf(first_bad) / 8}"
    assert len(forks) == SPLITS
    assert_no_child()


def test_interrupt_kills_and_reaps_the_child(ctx96, forks):
    mp = ctx96.mp

    def g(u):
        if u == mp.mpf(3) / 16:  # second level, this process's share
            raise KeyboardInterrupt
        return mp.cospi(2 * u)

    with pytest.raises(KeyboardInterrupt):
        trapezoid_mean(g, ctx96, 8, ctx96.target_tol, 1, "unused", periodic=True)
    assert len(forks) == SPLITS
    assert_no_child()


def test_dead_child_leaves_the_value_unchanged(ctx96, monkeypatch, forks):
    mp = ctx96.mp
    parent = os.getpid()

    def g(u):
        if os.getpid() != parent:
            os._exit(3)
        return mp.exp(mp.cospi(2 * u))

    split, alone = split_and_in_process(
        monkeypatch, lambda: trapezoid_mean(g, ctx96, 8, ctx96.target_tol, 1, "unused",
                                            periodic=True))
    assert _raw(split) == _raw(alone)
    assert len(forks) == SPLITS
    assert_no_child()


def test_unwritable_nodes_leave_the_value_unchanged(ctx96, monkeypatch, forks):
    mp = ctx96.mp
    parent = os.getpid()

    def dump(value, file):
        if os.getpid() == parent:
            raise ValueError("unmarshallable object")
        marshal.dump(value, file)

    monkeypatch.setattr(zetafn, "marshal", SimpleNamespace(dump=dump, load=marshal.load))
    split, alone = split_and_in_process(
        monkeypatch, lambda: trapezoid_mean(lambda u: mp.exp(mp.cospi(2 * u)), ctx96, 8,
                                            ctx96.target_tol, 1, "unused", periodic=True))
    assert _raw(split) == _raw(alone)
    assert len(forks) == SPLITS
    assert_no_child()


def test_nested_quadrature_does_not_fork(ctx96, monkeypatch, forks):
    mp = ctx96.mp
    seen = []

    def g(u):  # I_0(cos 2 pi u), as the mean of exp(cos(2 pi u) cos(2 pi v)) over v
        if zetafn._may_fork():
            raise AssertionError("a quadrature inside a quadrature may fork")
        seen.append(u)
        c = mp.cospi(2 * u)
        return trapezoid_mean(lambda v: mp.exp(c * mp.cospi(2 * v)), ctx96, 8,
                              ctx96.target_tol, 1, "inner", periodic=True)

    def outer():
        return trapezoid_mean(g, ctx96, 8, ctx96.target_tol, 1, "outer", periodic=True)

    split = outer()
    split_seen = seen[:]
    seen.clear()
    with monkeypatch.context() as m:
        one_cpu(m)
        alone = outer()
    assert _raw(split) == _raw(alone)
    assert len(forks) == SPLITS
    # no node twice: g never raised in the child, which would make this
    # process evaluate that level again in full
    assert len(set(split_seen)) == len(split_seen)
    assert len(split_seen) < len(seen) if SPLITS else split_seen == seen
    assert_no_child()
