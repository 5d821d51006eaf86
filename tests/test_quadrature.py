"""The doubling trapezoid rule (zetafn.trapezoid_mean) as the sum rule's
quadratures drive it: accuracy of the extrapolated stop, level count against
the plain |I_k - I_(k-1)| < tol stop, and the level cap.  Then the split of
each level between this process and a forked child: values bit for bit the
in-process ones, the in-process exception, and no child left behind."""

import marshal
import os
import signal
import time
from types import SimpleNamespace

import pytest
from conftest import SPLITS, assert_no_child, one_cpu

from zetasum import sumrule as sr
from zetasum import zetafn
from zetasum.zetafn import (InternalConsistencyError, PrecisionError, _from_raw, _raw,
                            _split_map, engine_for, trapezoid_mean)

# the criterion-04 parameter pairs, and the criterion-06 pairs not among them
CONTOUR_PAIRS = (("0.5", "0.5"), ("2", "0.25"), ("0.9", "0.75"))
CLOSURE_ONLY_PAIRS = (("0.3", "0.5"), ("5", "0.25"), ("5", "0.75"))


@pytest.fixture()
def recorded(monkeypatch):
    """Every trapezoid_mean call sumrule makes, with its memoized integrand
    and the node count it stopped at.  The calls run in process, so the memo
    sees every node: a forked child's evaluations never reach it."""
    one_cpu(monkeypatch)
    calls = []

    def recording(g, ctx, n, tol, scale, failure, periodic=False, conjugate=False,
                  max_doublings=20):
        cache = {}

        def memo(u):
            if u not in cache:
                cache[u] = g(u)
            return cache[u]

        value = trapezoid_mean(memo, ctx, n, tol, scale, failure, periodic, conjugate,
                               max_doublings)
        mp = ctx.mp
        if conjugate:
            # the first level, then the nodes u < 1/2 of every later level
            first = n if periodic else n + 1
            n_final = n + 2 * (len(cache) - first)
            expected = {mp.mpf(j) / n for j in range(first)} | {
                mp.mpf(j) / n_final for j in range(1, n_final // 2) if j % (n_final // n)}
        else:
            n_final = len(cache) if periodic else len(cache) - 1
            # the memo holds the whole final grid, not a share of its nodes
            expected = {mp.mpf(j) / n_final for j in range(len(cache))}
        assert set(cache) == expected
        calls.append(SimpleNamespace(g=memo, ctx=ctx, n=n, tol=tol, scale=scale,
                                     periodic=periodic, conjugate=conjugate,
                                     n_final=n_final, value=value))
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
    assert call.conjugate
    stop, plain = check_call(call)
    # the integrand is analytic: the extrapolated stop saves the confirming level
    assert plain is None or stop < plain


def test_residue_stops_are_accurate_and_no_later(ctx96, store30_96, recorded):
    params = sr.SumRuleParams(a="0.5", x="0.5", n_zeros=2, n_trivial=2, n_halfint=1)
    catalog = sr.pole_catalog(params, store30_96, ctx96)
    for site in catalog:
        sr.numeric_residue(site, params, ctx96, catalog, store=store30_96)
    assert len(recorded) == len(catalog) == 8
    for site, call in zip(catalog, recorded):
        assert call.periodic and call.n == 8
        # only a circle centred on the real axis mirrors its own values
        assert call.conjugate == (ctx96.mp.im(site.location) == 0)
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


def level_sizes(n, count, periodic=False, conjugate=False):
    """The node counts of trapezoid_mean's first count levels from n."""
    sizes = [n if periodic else n + 1]
    for _ in range(count - 1):
        sizes.append(n - n // 2 if conjugate else n)
        n *= 2
    return sizes[:count]


def assert_one_fork_per_contour_level(forks, maps):
    """Each level of a contour integral was one _split_map over its new
    nodes, and each forked one child; with one CPU, none."""
    assert maps == level_sizes(32, len(maps), conjugate=True)
    assert len(forks) == len(maps) and (len(maps) > 1) == SPLITS


def split_and_in_process(monkeypatch, fn):
    """(fn() as the split runs it here, fn() with one CPU)."""
    split = fn()
    with monkeypatch.context() as m:
        one_cpu(m)
        return split, fn()


@pytest.mark.parametrize("a,x", [CONTOUR_PAIRS[0], CONTOUR_PAIRS[2]])
def test_contour_split_is_bit_for_bit(ctx96, monkeypatch, forks, maps, a, x):
    params = sr.SumRuleParams(a=a, x=x)
    split, alone = split_and_in_process(monkeypatch, lambda: sr.contour_integral(params, ctx96))
    assert _raw(split) == _raw(alone)
    assert_one_fork_per_contour_level(forks, maps)
    assert_no_child()


def full_grid(*args, conjugate=False, **kwargs):
    """trapezoid_mean evaluating every node of every level."""
    return trapezoid_mean(*args, **kwargs)


@pytest.mark.parametrize("bits,a,x", [(96, a, x) for a, x in CONTOUR_PAIRS + CLOSURE_ONLY_PAIRS]
                         + [(192, "0.5", "0.5")])
def test_mirrored_contour_is_the_full_grid_bit_for_bit(request, monkeypatch, forks, maps, bits,
                                                       a, x):
    ctx = request.getfixturevalue(f"ctx{bits}")
    params = sr.SumRuleParams(a=a, x=x)
    split, alone = split_and_in_process(monkeypatch, lambda: sr.contour_integral(params, ctx))
    assert_one_fork_per_contour_level(forks, maps)
    monkeypatch.setattr(sr, "trapezoid_mean", full_grid)
    assert _raw(split) == _raw(alone) == _raw(sr.contour_integral(params, ctx))
    assert_no_child()


def conjugate_symmetric(mp, flip=None):
    """g(u) = exp(e^(i pi (2u - 1))), evaluated for u <= 1/2 and conjugated
    above, so g(1 - u) = conj g(u) bit for bit; except that at u = flip the
    last bit of the real part's mantissa is flipped.  Its mean is 1."""
    half = mp.mpf(1) / 2

    def g(u):
        v = mp.exp(mp.expjpi(2 * min(u, 1 - u) - 1))
        if u > half:
            v = mp.conj(v)
        if u == flip:
            _, _, e, _ = v.real._mpf_  # the mantissa is odd: its last bit is 1
            v = mp.mpc(v.real - mp.ldexp(1, e), v.imag)
        return v

    return g


def test_conjugate_levels_are_the_full_grid_bit_for_bit(ctx96, forks, maps):
    def mean(conjugate):
        return trapezoid_mean(conjugate_symmetric(ctx96.mp), ctx96, 8, ctx96.target_tol, 1,
                              "unused", conjugate=conjugate)

    mirrored = mean(True)
    assert abs(mirrored - 1) < ctx96.target_tol
    assert _raw(mirrored) == _raw(mean(False))
    # three levels each: the mirrored one maps 9, 4 and 8 nodes, the full one 9, 8 and 16
    assert maps == (level_sizes(8, 3, conjugate=True) + level_sizes(8, 3) if SPLITS else [])
    assert len(forks) == len(maps)
    assert_no_child()


@pytest.mark.parametrize("j", [3, 6, 8], ids=["below-half", "above-half", "endpoint"])
def test_first_level_guard_names_the_flipped_node(ctx96, monkeypatch, forks, j):
    mp = ctx96.mp
    flip = mp.mpf(j) / 8
    g = conjugate_symmetric(mp, flip)

    def run():
        with pytest.raises(InternalConsistencyError) as info:
            trapezoid_mean(g, ctx96, 8, ctx96.target_tol, 1, "unused", conjugate=True)
        return str(info.value)

    split, alone = split_and_in_process(monkeypatch, run)
    u = min(flip, 1 - flip)
    assert split == alone == f"g(1 - u) is not conj g(u) at u = {u}, 1 - u = {1 - u}"
    assert len(forks) == SPLITS
    assert_no_child()


def test_residues_and_circle_derivative_split_bit_for_bit(ctx96, store30_96, monkeypatch, forks,
                                                          maps):
    params = sr.SumRuleParams(a="0.5", x="0.5", n_zeros=2, n_trivial=2, n_halfint=1)
    catalog = sr.pole_catalog(params, store30_96, ctx96)
    sites = list({site.family: site for site in catalog}.values())
    assert len(sites) == 4  # trivial, half-integer, zero and conjugate zero

    def values():
        out = [sr.numeric_residue(site, params, ctx96, catalog, store=store30_96)
               for site in sites]
        return out + [engine_for(ctx96).zeta_deriv(ctx96.mp.mpf("0.01"))]  # cauchy_deriv

    split, alone = split_and_in_process(monkeypatch, values)
    assert [_raw(v) for v in split] == [_raw(v) for v in alone]
    # five periodic quadratures of three levels each; the four residue
    # circles run in process, and each level of the derivative's circle at
    # 0.01, centred on the real axis, forks once and evaluates half of each
    # level after the first
    assert maps == (level_sizes(8, 3, periodic=True, conjugate=True) if SPLITS else [])
    assert len(forks) == 3 * SPLITS


def test_site_by_site_zero_and_conjugate_fork_nothing(ctx96, store30_96, monkeypatch, forks,
                                                      maps):
    # called site by site where a split would fork, a zero's circle and its
    # conjugate's run in process: the zero's circle holds every node it
    # evaluates, so the conjugate's evaluates only its first level's 8
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(zetafn, "_quota_cpus", lambda: float("inf"))
    assert zetafn._may_fork()
    params = sr.SumRuleParams(a="0.5", x="0.5", n_zeros=1, n_trivial=1, n_halfint=1)
    catalog = sr.pole_catalog(params, store30_96, ctx96)
    integrand, evaluated = sr._integrand, []

    def counting(*args):
        evaluated[-1] += 1
        return integrand(*args)

    monkeypatch.setattr(sr, "_integrand", counting)
    monkeypatch.setattr(sr, "_last_circle", [None, {}])
    for site in catalog[-2:]:
        evaluated.append(0)
        sr.numeric_residue(site, params, ctx96, catalog, store=store30_96)
    assert [site.family for site in catalog[-2:]] == ["critical_zero", "critical_zero_conjugate"]
    assert evaluated == [32, 8]  # levels of 8, 8 and 16 nodes
    assert forks == maps == []
    assert zetafn._may_fork()


@pytest.mark.parametrize("text,cpus", [("150000 100000\n", 1.5), ("200000 100000\n", 2.0),
                                       ("max 100000\n", float("inf")), (None, float("inf"))],
                         ids=["1.5", "2", "max", "missing"])
def test_cpu_quota_below_two_cpus_evaluates_in_process(ctx96, tmp_path, monkeypatch, forks,
                                                       text, cpus):
    # cpu.max is read once per process: a quota below two CPUs' time keeps
    # every split in process, and a file that changes later is not read again
    path = tmp_path / "cpu.max"
    if text is not None:
        path.write_text(text)
    monkeypatch.setattr(zetafn, "_CPU_MAX", str(path))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    mp = ctx96.mp
    zetafn._quota_cpus.cache_clear()
    try:
        assert zetafn._quota_cpus() == cpus
        path.write_text("100000 100000\n")
        assert zetafn._quota_cpus() == cpus
        assert zetafn._may_fork() == (cpus >= 2)
        assert _split_map(lambda i: mp.mpf(i) / 3, 4, mp) == [mp.mpf(i) / 3 for i in range(4)]
        assert len(forks) == (cpus >= 2)
    finally:
        zetafn._quota_cpus.cache_clear()
    assert_no_child()


@pytest.mark.parametrize("bits", [96, 192])
def test_residues_are_full_circles_that_share_nothing_bit_for_bit(request, monkeypatch, forks,
                                                                   bits):
    # each residue of the catalog, mapped (zero and conjugate in one task) and
    # site by site on one CPU, is the residue of a full circle evaluated with
    # no other circle held; on one CPU each conjugate circle evaluates only
    # its first level and takes every later node from its zero's circle
    ctx = request.getfixturevalue(f"ctx{bits}")
    store = request.getfixturevalue(f"store{ {96: 30, 192: 40}[bits] }_{bits}")
    forks.clear()  # a store built here, on the test's first use, forks too
    params = sr.SumRuleParams(a="0.5", x="0.5", n_zeros=2, n_trivial=2, n_halfint=1)
    catalog = sr.pole_catalog(params, store, ctx)
    mapped = sr._residue_map(catalog, params, ctx, catalog, store)
    assert len(forks) == SPLITS
    integrand, evaluated = sr._integrand, []

    def counting(*args):
        evaluated[-1] += 1
        return integrand(*args)

    def residue(site):
        evaluated.append(0)
        return sr.numeric_residue(site, params, ctx, catalog, store=store)

    with monkeypatch.context() as m:
        one_cpu(m)
        m.setattr(sr, "_integrand", counting)
        alone = [residue(site) for site in catalog]
    assert [n for site, n in zip(catalog, evaluated)
            if site.family == "critical_zero_conjugate"] == [8, 8]
    monkeypatch.setattr(sr, "trapezoid_mean", full_grid)
    full = []
    for site in catalog:
        monkeypatch.setattr(sr, "_last_circle", [None, {}])
        full.append(residue(site))
    assert [_raw(v) for v in mapped] == [_raw(v) for v in alone] == [_raw(v) for v in full]
    assert_no_child()


@pytest.mark.parametrize("j", [0, 3, 6])
def test_asymmetric_conjugate_circle_names_its_site(ctx96, store30_96, monkeypatch, forks, j):
    # the integrand one ulp off at node j/8 of the conjugate circle's first
    # level: the conjugate's residue raises, naming its site and the node,
    # alone or mapped with its zero, on one CPU and split
    mp = ctx96.mp
    params = sr.SumRuleParams(a="0.5", x="0.5", n_zeros=1, n_trivial=1, n_halfint=1)
    catalog = sr.pole_catalog(params, store30_96, ctx96)
    zero, conj = catalog[-2:]
    integrand, seen, flip = sr._integrand, [], []

    def asymmetric(s, *args):
        seen.append(s)
        v = integrand(s, *args)
        if flip and s == flip[0]:
            _, _, e, _ = v.real._mpf_  # the mantissa is odd: its last bit is 1
            v = mp.mpc(v.real - mp.ldexp(1, e), v.imag)
        return v

    monkeypatch.setattr(sr, "_integrand", asymmetric)
    monkeypatch.setattr(sr, "_last_circle", [None, {}])  # the flipped value is held after
    with monkeypatch.context() as m:
        one_cpu(m)
        sr.numeric_residue(zero, params, ctx96, catalog, store=store30_96)
        seen.clear()
        sr.numeric_residue(conj, params, ctx96, catalog, store=store30_96)
    flip.append(seen[j])  # the first level's nodes come first, in order

    def run(alone):
        with pytest.raises(InternalConsistencyError) as info:
            if alone:  # the zero's circle, then the conjugate's
                for site in (zero, conj):
                    sr.numeric_residue(site, params, ctx96, catalog, store=store30_96)
            else:
                sr._residue_map(catalog, params, ctx96, catalog, store30_96)
        return str(info.value)

    message = ("residue circle at critical_zero_conjugate index 1 is not the last circle's "
               f"mirror at u = {mp.mpf(j) / 8}")
    with monkeypatch.context() as m:
        one_cpu(m)
        assert run(alone=True) == message
    split, alone = split_and_in_process(monkeypatch, lambda: run(alone=False))
    assert split == alone == message
    assert len(forks) == SPLITS  # one map: three sites, then the pair
    assert_no_child()


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


def test_raw_form_takes_ints_and_nested_tuples(ctx96, monkeypatch, forks):
    # a refined zero crosses as the pair (tau, zeta'); an int subclass, as
    # gmpy2.mpz is one, crosses as a plain int
    mp = ctx96.mp
    x, y = with_mpz(mp, mp.mpf(1) / 3), with_mpz(mp, -mp.pi)
    with pytest.raises(ValueError):
        marshal.dumps(Mpz(7))
    for v in (Mpz(7), -2**100, (x, (3, mp.make_mpc((x._mpf_, y._mpf_)))), ()):
        back = _from_raw(mp, marshal.loads(marshal.dumps(_raw(v))))
        assert back == v and _raw(back) == _raw(v)
    assert type(_from_raw(mp, _raw(Mpz(7)))) is int

    def f(i):
        return Mpz(i), (with_mpz(mp, mp.mpf(i) / 3), ())

    split, alone = split_and_in_process(monkeypatch, lambda: _split_map(f, 5, mp))
    assert split == alone and [_raw(v) for v in split] == [_raw(v) for v in alone]
    assert len(forks) == SPLITS
    assert_no_child()


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
    assert len(forks) == 2 * SPLITS  # one per level
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


@pytest.mark.parametrize("bad,calls_here,calls_there", [
    ((5,), [0, 2, 4, 6, 8, 5], [1, 3, 5]),  # the child's first failure
    ((4,), [0, 2, 4, 4], [1, 3, 5, 7, 9]),  # this process's
    ((3, 6), [0, 2, 4, 6, 3], [1, 3]),  # both, the child's first
], ids=["odd", "even", "both"])
def test_failure_keeps_the_values_before_it(ctx96, monkeypatch, forks, tmp_path, bad,
                                            calls_here, calls_there):
    # each side stops at its first failure, and only the nodes from the first
    # one without a value are evaluated again, in process
    mp = ctx96.mp
    log = tmp_path / "calls"
    parent = os.getpid()

    def g(i):
        with open(log, "a") as f:  # appends from both processes
            f.write(f"{os.getpid()} {i}\n")
        if i in bad:
            raise ValueError(f"g fails at {i}")
        return mp.mpf(i) / 3

    def run():
        log.write_text("")
        with pytest.raises(ValueError) as info:
            _split_map(g, 10, mp)
        calls = [line.split() for line in log.read_text().splitlines()]
        return (str(info.value), [int(i) for pid, i in calls if int(pid) == parent],
                [int(i) for pid, i in calls if int(pid) != parent])

    (message, here, there), alone = split_and_in_process(monkeypatch, run)
    assert message == alone[0] == f"g fails at {bad[0]}"
    assert alone[1:] == (list(range(bad[0] + 1)), [])
    assert (here, there) == ((calls_here, calls_there) if SPLITS else alone[1:])
    assert len(forks) == SPLITS
    assert_no_child()


def test_interrupt_kills_and_reaps_the_child(ctx96, monkeypatch, forks):
    mp = ctx96.mp
    parent = os.getpid()
    statuses = []
    waitpid = os.waitpid

    def recording_waitpid(pid, options):
        statuses.append(waitpid(pid, options)[1])
        return pid, statuses[-1]

    def g(u):
        if u == mp.mpf(5) / 16:  # second level, this process's share
            raise KeyboardInterrupt
        if u == mp.mpf(3) / 16 and os.getpid() != parent:
            time.sleep(60)  # that level's child is alive when the interrupt lands
        return mp.cospi(2 * u)

    monkeypatch.setattr(os, "waitpid", recording_waitpid)
    with pytest.raises(KeyboardInterrupt):
        trapezoid_mean(g, ctx96, 8, ctx96.target_tol, 1, "unused", periodic=True)
    assert len(forks) == 2 * SPLITS  # the first level's and the second's
    # the first level's child exited, the second's was killed
    killed = [os.WIFSIGNALED(st) and os.WTERMSIG(st) == signal.SIGKILL for st in statuses]
    assert killed == ([False, True] if SPLITS else [])
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
    assert len(forks) == 3 * SPLITS  # 8, 8 and 16 nodes
    assert_no_child()


def test_parent_writes_nothing_to_the_child(ctx96, monkeypatch, forks):
    # the child builds its node lists itself: no node crosses to it
    mp = ctx96.mp
    parent = os.getpid()
    written = []

    def dump(value, file):
        if os.getpid() == parent:
            written.append(value)
        marshal.dump(value, file)

    monkeypatch.setattr(zetafn, "marshal", SimpleNamespace(dump=dump, load=marshal.load))
    split, alone = split_and_in_process(
        monkeypatch, lambda: trapezoid_mean(lambda u: mp.exp(mp.cospi(2 * u)), ctx96, 8,
                                            ctx96.target_tol, 1, "unused", periodic=True))
    assert _raw(split) == _raw(alone)
    assert written == []
    assert len(forks) == 3 * SPLITS  # 8, 8 and 16 nodes
    assert_no_child()


def test_unsendable_values_leave_the_value_unchanged(ctx96, monkeypatch, forks):
    mp = ctx96.mp
    parent = os.getpid()
    raw = zetafn._raw

    def child_cannot_send(v):
        if os.getpid() != parent:
            raise ValueError("unmarshallable object")
        return raw(v)

    monkeypatch.setattr(zetafn, "_raw", child_cannot_send)
    split, alone = split_and_in_process(
        monkeypatch, lambda: trapezoid_mean(lambda u: mp.exp(mp.cospi(2 * u)), ctx96, 8,
                                            ctx96.target_tol, 1, "unused", periodic=True))
    assert _raw(split) == _raw(alone)
    assert len(forks) == 3 * SPLITS  # 8, 8 and 16 nodes
    assert_no_child()


def test_a_str_crosses_the_pipe_as_it_is(ctx96, forks):
    # each item is the pid of the process that evaluated it: the odd ones
    # carry the child's, so each str crossed the pipe and was not recomputed
    mp = ctx96.mp
    for text in ("", "ab", "a str"):  # "ab" is as long as a raw mpc
        assert _from_raw(mp, marshal.loads(marshal.dumps(_raw(text)))) == text
    here = str(os.getpid())
    pids = _split_map(lambda i: str(os.getpid()), 5, mp)
    child = str(forks[0]) if SPLITS else here
    assert pids == [here, child, here, child, here]
    assert len(forks) == SPLITS
    assert_no_child()


@pytest.mark.parametrize("count", [0, 1])
def test_map_over_fewer_than_two_items_forks_nothing(ctx96, forks, count):
    assert _split_map(lambda i: ctx96.mp.mpf(i) / 3, count, ctx96.mp) == [
        ctx96.mp.mpf(i) / 3 for i in range(count)]
    assert forks == []


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
    assert len(forks) == 3 * SPLITS  # the outer quadrature's levels only
    # no node twice: g never raised in the child, which would make this
    # process evaluate that level again in full
    assert len(set(split_seen)) == len(split_seen)
    assert len(split_seen) < len(seen) if SPLITS else split_seen == seen
    assert_no_child()
