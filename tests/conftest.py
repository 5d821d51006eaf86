import os

import pytest

from zetasum import cli, sumrule, zetafn
from zetasum.numctx import NumericContext
from zetasum.zeros import load_or_compute
from zetasum.zetafn import ZetaEngine


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    """Zeros cache shared by the whole session.  Point ZETASUM_TEST_CACHE at a
    persistent directory to skip the expensive zero searches across runs."""
    env = os.environ.get("ZETASUM_TEST_CACHE")
    if env:
        os.makedirs(env, exist_ok=True)
        return env
    return str(tmp_path_factory.mktemp("zeros-cache"))


@pytest.fixture(scope="session")
def ctx96():
    return NumericContext(96)


@pytest.fixture(scope="session")
def ctx128():
    return NumericContext(128)


@pytest.fixture(scope="session")
def ctx192():
    return NumericContext(192)


@pytest.fixture(scope="session")
def ctx256():
    return NumericContext(256)


@pytest.fixture(scope="session")
def store30_96(ctx96, cache_dir):
    return load_or_compute(30, ctx96, cache_dir)


@pytest.fixture(scope="session")
def store40_192(ctx192, cache_dir):
    return load_or_compute(40, ctx192, cache_dir)


@pytest.fixture(scope="session")
def store500_192(ctx192, cache_dir):
    return load_or_compute(500, ctx192, cache_dir)


# whether a quadrature, a zero refinement or a zero sum forks here: it needs
# a second CPU in the affinity mask and a CPU quota of two CPUs' time or more
SPLITS = (len(getattr(os, "sched_getaffinity", lambda pid: {0})(0)) > 1
          and zetafn._quota_cpus() >= 2)


def one_cpu(monkeypatch):
    """Make every split evaluate in process, where a recorder sees each call:
    one made in a forked child never reaches it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture()
def held_tables():
    """sumrule's held x-independent tables (sumrule._held), empty when the
    test starts and emptied when it ends, so no table a test alters or builds
    reaches another test."""
    sumrule._held.clear()
    yield sumrule._held
    sumrule._held.clear()


@pytest.fixture()
def hardy_passes(monkeypatch):
    """The (t, with_deriv, precision_bits of the engine) of every pass of Z at
    a working precision, in call order; every split evaluates in process, so
    each pass is seen."""
    one_cpu(monkeypatch)
    passes = []
    hardy = ZetaEngine._hardy

    def counting(self, t, with_deriv):
        passes.append((t, with_deriv, self.ctx.precision_bits))
        return hardy(self, t, with_deriv)

    monkeypatch.setattr(ZetaEngine, "_hardy", counting)
    return passes


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


@pytest.fixture()
def maps(monkeypatch):
    """The item count of each _split_map call (zetafn's, sumrule's and the
    CLI's) that this process makes where it may fork (zetafn._may_fork: a
    second CPU free, outside another such call and outside _in_process), in
    call order.  Each with two items or more forks one child; a call inside
    any of them evaluates in process."""
    counts = []
    depth = 0
    split_map = zetafn._split_map

    def counting(f, count, mp):
        nonlocal depth
        if not depth and zetafn._may_fork():
            counts.append(count)
        depth += 1
        try:
            return split_map(f, count, mp)
        finally:
            depth -= 1

    for module in (zetafn, sumrule, cli):
        monkeypatch.setattr(module, "_split_map", counting)
    return counts


def next_up(v):
    """The number one unit in the last place above v > 0 at v's own context
    precision: the smallest mpf of that context greater than v."""
    mp = v.context
    return v + mp.mpf(2) ** (mp.mag(v) - mp.prec)
