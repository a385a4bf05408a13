import numpy as np
import pytest
from hypothesis import settings

from ntdkit.cones import check_ssc
from ntdkit.evaluate import align_columns
from ntdkit.solvers import numerical_rank
from ntdkit.tensor import mode_slice

# Every property test runs derandomized with no example database and no
# deadline, so every run tries the same examples; each module sets only
# its ``max_examples``.
settings.register_profile("ntdkit", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("ntdkit")


def stochastic(n, r, rng):
    u = rng.random((n, r)) + 0.05
    return u / u.sum(axis=0)


def two_nonzero(n, r, rng):
    """Rows with exactly two uniform nonzeros, every column touched."""
    while True:
        h = np.zeros((n, r))
        for i in range(n):
            cols = rng.choice(r, size=2, replace=False)
            h[i, cols] = rng.random(2)
        if (h.sum(axis=0) > 0).all():
            return h / h.sum(axis=0)


def two_nonzero_ssc(n, r, rng, max_tries=200):
    """A ``two_nonzero`` draw that passes ``check_ssc``.  At r = 2 every row
    is positive, so no draw is SSC; ``ValueError`` there and after
    ``max_tries`` failed draws."""
    if r < 3:
        raise ValueError(f"no two-nonzero {n}x{r} factor is SSC (r < 3)")
    for _ in range(max_tries):
        h = two_nonzero(n, r, rng)
        if check_ssc(h).ssc:
            return h
    raise ValueError(f"no SSC two-nonzero {n}x{r} factor in {max_tries} "
                     f"draws")


def same_vertices(v, w):
    """``v`` and ``w`` list the same vertices: equal shape and a one-to-one
    match whose pairs agree within 1e-12 * max(1, max|w_k|)."""
    v, w = np.asarray(v), np.asarray(w)
    if v.shape != w.shape:
        return False
    tol = 1e-12 * np.maximum(1.0, np.abs(w).max(axis=1, initial=0.0))
    close = np.abs(v[:, None] - w[None]).max(axis=2, initial=0.0) <= tol
    return bool((close.sum(axis=0) == 1).all()
                and (close.sum(axis=1) == 1).all())


def slice_ranks(t, mode):
    """``numerical_rank`` of every slice along ``mode``, one SVD each: the
    reference for the package's slice rules."""
    return [numerical_rank(mode_slice(t, mode, j))
            for j in range(t.dims[mode])]


def max_rank_slice(t, mode):
    """The first slice index along ``mode`` of the largest numerical rank."""
    return int(np.argmax(slice_ranks(t, mode)))


def range_basis(x, r):
    """The leading ``r`` left singular vectors of ``x``: an orthonormal
    basis of its column space when its rank is ``r``."""
    return np.linalg.svd(np.asarray(x, dtype=float),
                         full_matrices=False)[0][:, :r]


def align_error(u_est, u_ref):
    """Worst relative column error after min-cost column matching."""
    _, err = align_columns(u_est, u_ref)
    return err


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
