"""Subcrossing count laws and their structural checks.

A crossing at any level decomposes into an even number Z >= 2 of subcrossings,
so an offspring law here is a distribution on {2, 4, 6, ...}.  Supercriticality
(mean mu > 2) is what makes the branching construction work, and the Hurst
index of the resulting process is log 2 / log mu.

Unbounded families are truncated where the remaining tail mass drops below
1e-12 and renormalized; the truncated table is what the moment and dominance
checkers operate on.  Sampling, by contrast, always uses the exact parametric
law (negative binomial / Poisson draws), so truncation never touches simulated
trees.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .errors import ConfigError

__all__ = [
    "OffspringDistribution",
    "MeanMatrix",
    "DominanceCheckResult",
    "make_offspring",
    "mean_offspring_matrix",
    "check_assumption_gw",
    "check_assumption_z",
]

TAIL_MASS = 1e-12

FAMILIES = ("geometric-pairs", "poisson-pairs", "fixed-pairs", "custom")


@dataclass(frozen=True)
class OffspringDistribution:
    """Validated subcrossing count law.

    support/probs hold the truncated, renormalized pmf table; ``mu`` is the
    exact closed-form mean for parametric families (the table mean agrees to
    ~1e-10).  ``pi`` is P(Z > 2), the mass not on the minimal count, and
    ``hurst`` is log 2 / log mu.
    """

    family: str
    params: dict
    support: np.ndarray          # even integers >= 2, increasing
    probs: np.ndarray            # same length, sums to 1
    mu: float
    pi: float
    hurst: float

    def sample_z(self, rng, size):
        """Draw subcrossing counts from the exact (untruncated) law."""
        if self.family == "geometric-pairs":
            return 2 * rng.geometric(self.params["p"], size=size).astype(np.int64)
        if self.family == "poisson-pairs":
            return 2 + 2 * rng.poisson(self.params["lam"], size=size).astype(np.int64)
        if self.family == "fixed-pairs":
            return np.full(size, 2 * self.params["b"], dtype=np.int64)
        return rng.choice(self.support, size=size, p=self.probs).astype(np.int64)

    def population_step(self, rng, counts):
        """One aggregated Galton-Watson generation.

        Given a vector of population counts, returns the next generation's
        counts without materializing individuals: each family reduces the sum
        of ``counts[i]`` i.i.d. Z draws to a closed-form draw (or a binomial
        split across the support for custom tables).
        """
        counts = np.asarray(counts, dtype=np.int64)
        if self.family == "geometric-pairs":
            # sum of n geometrics(p) on {1,2,...} is n + NegBin(n, p)
            return 2 * (counts + rng.negative_binomial(counts, self.params["p"]))
        if self.family == "poisson-pairs":
            return 2 * counts + 2 * rng.poisson(self.params["lam"] * counts)
        if self.family == "fixed-pairs":
            return 2 * self.params["b"] * counts
        # custom: multinomial thinning of each population across the support,
        # done as sequential binomials so it vectorizes over the count vector
        remaining = counts.copy()
        mass = 1.0
        total = np.zeros_like(counts)
        for z, q in zip(self.support[:-1], self.probs[:-1]):
            take = rng.binomial(remaining, min(q / mass, 1.0))
            total += z * take
            remaining -= take
            mass -= q
        total += self.support[-1] * remaining
        return total

    def __repr__(self):
        args = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"OffspringDistribution({self.family}({args}), mu={self.mu:g}, hurst={self.hurst:.4g})"


def _validated(family, params, support, probs, mu):
    support = np.asarray(support, dtype=np.int64)
    probs = np.asarray(probs, dtype=np.float64)
    if support.size == 0:
        raise ConfigError("INVALID_PMF", "empty support")
    if np.any(support < 2) or np.any(support % 2 != 0):
        raise ConfigError("INVALID_PMF", "support must be even integers >= 2")
    if np.any(np.diff(support) <= 0):
        raise ConfigError("INVALID_PMF", "support must be strictly increasing")
    if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
        raise ConfigError("INVALID_PMF", f"probabilities sum to {probs.sum()!r}, not 1")
    probs = probs / probs.sum()
    if mu <= 2:
        raise ConfigError(
            "MU_NOT_SUPERCRITICAL", f"mean subcrossing count {mu:g} <= 2"
        )
    pi = float(probs[support > 2].sum())
    hurst = np.log(2.0) / np.log(mu)
    return OffspringDistribution(
        family=family, params=params, support=support, probs=probs,
        mu=float(mu), pi=pi, hurst=float(hurst),
    )


def make_offspring(family, **params):
    """Build a validated offspring law.

    Families: ``geometric-pairs`` (p; mu = 2/p), ``poisson-pairs`` (lam;
    mu = 2(1+lam)), ``fixed-pairs`` (b; mu = 2b), ``custom`` (pmf, a
    {even z >= 2: prob} table).
    """
    if family == "geometric-pairs":
        p = float(params.get("p", np.nan))
        if not 0 < p < 1:
            raise ConfigError("INVALID_PMF", f"geometric-pairs needs 0 < p < 1, got {p!r}")
        # Z/2 ~ geometric(p) on {1, 2, ...}; truncate where the tail < 1e-12
        kmax = int(np.ceil(np.log(TAIL_MASS) / np.log1p(-p))) + 1
        k = np.arange(1, kmax + 1)
        probs = p * (1 - p) ** (k - 1)
        return _validated(family, {"p": p}, 2 * k, probs / probs.sum(), 2.0 / p)
    if family == "poisson-pairs":
        lam = float(params.get("lam", np.nan))
        if not lam > 0:
            raise ConfigError("INVALID_PMF", f"poisson-pairs needs lam > 0, got {lam!r}")
        jmax = int(stats.poisson.isf(TAIL_MASS, lam)) + 2
        j = np.arange(0, jmax + 1)
        probs = stats.poisson.pmf(j, lam)
        return _validated(family, {"lam": lam}, 2 * (1 + j), probs / probs.sum(), 2.0 * (1 + lam))
    if family == "fixed-pairs":
        b = params.get("b")
        if not (isinstance(b, (int, np.integer)) and b >= 1):
            raise ConfigError("INVALID_PMF", f"fixed-pairs needs integer b >= 1, got {b!r}")
        return _validated(family, {"b": int(b)}, [2 * b], [1.0], 2.0 * b)
    if family == "custom":
        table = params.get("pmf")
        if not table:
            raise ConfigError("INVALID_PMF", "custom family needs a nonempty pmf table")
        zs = sorted(table)
        probs = np.array([table[z] for z in zs], dtype=np.float64)
        mu = float(np.dot(zs, probs))
        return _validated(family, {"pmf": dict(table)}, zs, probs, mu)
    raise ConfigError("INVALID_PMF", f"unknown family {family!r} (options: {', '.join(FAMILIES)})")


@dataclass(frozen=True)
class MeanMatrix:
    """Mean offspring matrix of the two-type (up/down) crossing decomposition.

    An up crossing with Z subcrossings contains Z/2 + 1 up and Z/2 - 1 down
    subcrossings, mirrored for down parents, which fixes the matrix entries
    [[mu+/2 + 1, mu+/2 - 1], [mu-/2 - 1, mu-/2 + 1]].
    """

    entries: np.ndarray = field(repr=False)
    dominant_eigenvalue: float
    second_eigenvalue: float
    left_eigenvector: np.ndarray
    right_eigenvector: np.ndarray


def mean_offspring_matrix(mu_plus, mu_minus):
    """Mean matrix with its closed-form eigenstructure.

    Dominant eigenvalue (mu+ + mu-)/2 with left eigenvector (1/2, 1/2); the
    second eigenvalue is always exactly 2.  The right eigenvector is
    normalized so its components average to 1.
    """
    if mu_plus <= 2 or mu_minus <= 2:
        raise ConfigError(
            "MU_NOT_SUPERCRITICAL",
            f"both type means must exceed 2, got ({mu_plus:g}, {mu_minus:g})",
        )
    entries = np.array([
        [mu_plus / 2 + 1, mu_plus / 2 - 1],
        [mu_minus / 2 - 1, mu_minus / 2 + 1],
    ])
    mu = (mu_plus + mu_minus) / 2.0
    right = np.array([(mu_plus - 2) / (mu - 2), (mu_minus - 2) / (mu - 2)])
    return MeanMatrix(
        entries=entries,
        dominant_eigenvalue=float(mu),
        second_eigenvalue=2.0,
        left_eigenvector=np.array([0.5, 0.5]),
        right_eigenvector=right,
    )


def check_assumption_gw(dist):
    """Report supercriticality and E[Z log Z].

    Never raises: returns {passed, supercritical, mu, z_log_z}.  The moment is
    a finite sum over the truncated table, which is exact for bounded laws and
    accurate to the truncation mass otherwise.
    """
    z = dist.support.astype(np.float64)
    z_log_z = float(np.dot(dist.probs, z * np.log(z)))
    supercritical = dist.mu > 2
    return {
        "passed": bool(supercritical),
        "supercritical": bool(supercritical),
        "mu": dist.mu,
        "z_log_z": z_log_z,
    }


@dataclass
class DominanceCheckResult:
    """Outcome of the residual-count stochastic dominance scan.

    ``zeta`` is the minimal offset in [0, zeta_max] for which
    P(Z - y > z | Z > y) <= P(Z + zeta > z) holds for every y in the checked
    range and every z on the truncated support, or None if none passes;
    ``violations`` then lists the failing (y, z) pairs at zeta = zeta_max.
    """

    zeta: int | None
    checked_y_range: tuple[int, int]
    violations: list[tuple[int, int]]

    @property
    def passed(self):
        return self.zeta is not None


def check_assumption_z(dist, zeta_max=None, y_max=None):
    """Scan zeta = 0, 1, ... for the stochastic dominance property.

    Defaults: y_max is max(support) - 1 (conditioning on Z > y is vacuous
    beyond that) and zeta_max is max(support) - 2, which always suffices for
    a bounded table.
    """
    z_top = int(dist.support[-1])
    if y_max is None:
        y_max = z_top - 1
    if zeta_max is None:
        zeta_max = z_top - 2
    if y_max < 1 or zeta_max < 0:
        raise ConfigError("INVALID_CONFIG", "need y_max >= 1 and zeta_max >= 0")

    # survival S[t] = P(Z > t) for t = 0 .. z_top
    pmf = np.zeros(z_top + 1)
    pmf[dist.support] = dist.probs
    S = np.concatenate([1.0 - np.cumsum(pmf), [0.0]])[: z_top + 1]

    def surv(t):
        t = np.asarray(t)
        out = np.ones(t.shape, dtype=np.float64)
        out[t >= z_top] = 0.0
        mid = (t >= 0) & (t < z_top)
        out[mid] = S[t[mid]]
        return out

    zs = np.arange(0, z_top + 1)
    ys = [y for y in range(0, y_max + 1) if surv(np.array([y]))[0] > 0]
    failures_at_max = []
    for zeta in range(0, zeta_max + 1):
        rhs = surv(zs - zeta)
        bad = []
        for y in ys:
            lhs = surv(zs + y) / surv(np.array([y]))[0]
            viol = np.nonzero(lhs > rhs + 1e-12)[0]
            bad.extend((y, int(zs[i])) for i in viol)
        if not bad:
            return DominanceCheckResult(
                zeta=zeta, checked_y_range=(0, y_max), violations=[]
            )
        failures_at_max = bad
    return DominanceCheckResult(
        zeta=None, checked_y_range=(0, y_max), violations=failures_at_max
    )
