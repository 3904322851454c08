"""The 18-family distribution zoo used for workload model fitting.

"For all users, the best fit was found by modeling each data set using a
set of 18 different distributions, and choosing the best fit based on the
Bayesian information criterion.  The set of distributions includes
distributions such as normal, Weibull, Generalized Extreme Value (GEV),
Birnbaum-Saunders (BS), Pareto, Burr, and Log-normal." (paper Section IV-2)

Each family wraps a ``scipy.stats`` distribution but exposes the paper's
(MATLAB-style) parameterization — e.g. ``GEV(k, sigma, mu)`` where scipy's
``genextreme`` uses ``c = -k`` — so the reproduced Tables II/III read like
the originals.  Families provide pdf/cdf/icdf/logpdf, sampling, and MLE
fitting; positive-support families fit with the location pinned at zero,
matching MATLAB's two/three-parameter fits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import stats

__all__ = ["Family", "FittedDistribution", "FitError", "FAMILIES", "get_family"]


class FitError(RuntimeError):
    """Raised when MLE fitting fails or produces a degenerate model."""


@dataclass(frozen=True)
class FittedDistribution:
    """A frozen distribution in the family's paper parameterization."""

    family: "Family"
    params: Tuple[float, ...]

    def _frozen(self):
        # Freezing a scipy distribution is expensive (it rebuilds docs);
        # cache the frozen object on first use.  The dataclass is frozen so
        # the cache cannot go stale.
        cached = self.__dict__.get("_frozen_cache")
        if cached is None:
            cached = self.family.freeze(*self.params)
            object.__setattr__(self, "_frozen_cache", cached)
        return cached
    def pdf(self, x):
        return self._frozen().pdf(x)

    def logpdf(self, x):
        return self._frozen().logpdf(x)

    def cdf(self, x):
        return self._frozen().cdf(x)

    def icdf(self, q):
        """Inverse CDF (ppf) — the sampling workhorse (paper Section IV-2)."""
        return self._frozen().ppf(q)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.asarray(self._frozen().rvs(size=n, random_state=rng), dtype=float)

    def median(self) -> float:
        return float(self._frozen().median())

    def loglik(self, data: np.ndarray) -> float:
        with np.errstate(divide="ignore", invalid="ignore"):
            lp = self.logpdf(np.asarray(data, dtype=float))
        return float(np.sum(lp))

    @property
    def n_params(self) -> int:
        return len(self.params)

    def describe(self) -> str:
        inner = ", ".join(f"{n} = {v:.4g}"
                          for n, v in zip(self.family.param_names, self.params))
        return f"{self.family.display_name}({inner})"

    def __repr__(self) -> str:
        return self.describe()


class Family:
    """One distribution family with paper-style parameters.

    ``to_scipy(params)`` maps paper parameters to a frozen scipy
    distribution; ``from_scipy(scipy_params)`` maps a scipy ``fit`` result
    (shapes..., loc, scale) back.  ``fit_kwargs`` pins parameters during
    MLE (most positive-support families pin ``floc=0``).
    """

    def __init__(self, name: str, display_name: str,
                 param_names: Sequence[str],
                 scipy_dist,
                 to_scipy: Callable[[Tuple[float, ...]], Tuple],
                 from_scipy: Callable[[Tuple[float, ...]], Tuple[float, ...]],
                 fit_kwargs: Optional[Dict] = None,
                 positive_support: bool = False,
                 standardize: bool = False,
                 initial_guess: Optional[Callable[[np.ndarray], Tuple]] = None):
        self.name = name
        self.display_name = display_name
        self.param_names = tuple(param_names)
        self.scipy_dist = scipy_dist
        self._to_scipy = to_scipy
        self._from_scipy = from_scipy
        self.fit_kwargs = fit_kwargs or {}
        self.positive_support = positive_support
        # Location-scale families: fit on standardized data and rescale the
        # result.  scipy's MLE start points are poor for data far from the
        # origin (e.g. GEV over arrival times ~1e7 s) and diverge otherwise.
        self.standardize = standardize
        # Optional moment/L-moment estimator supplying MLE start values (in
        # scipy parameter order); GEV needs this — its default-start MLE
        # lands in bad local optima even on GEV-generated data.
        self.initial_guess = initial_guess

    @property
    def n_params(self) -> int:
        return len(self.param_names)

    def freeze(self, *params: float):
        args = self._to_scipy(tuple(params))
        return self.scipy_dist(*args)

    def make(self, *params: float) -> FittedDistribution:
        return FittedDistribution(self, tuple(float(p) for p in params))

    def fit(self, data: np.ndarray) -> FittedDistribution:
        """MLE fit returning paper-style parameters.

        Raises :class:`FitError` on non-convergence, invalid data for the
        support, or a degenerate likelihood.
        """
        data = np.asarray(data, dtype=float)
        if data.size < max(8, self.n_params + 1):
            raise FitError(f"{self.name}: too few samples ({data.size})")
        if self.positive_support and np.any(data <= 0):
            raise FitError(f"{self.name}: requires strictly positive data")
        shift, spread = 0.0, 1.0
        fit_data = data
        if self.standardize:
            shift = float(np.mean(data))
            spread = float(np.std(data))
            if spread <= 0:
                raise FitError(f"{self.name}: degenerate (constant) data")
            fit_data = (data - shift) / spread
        elif self.positive_support:
            # scale-normalize: positive-support MLEs (notably Burr) overflow
            # or stall on data far from unit scale; dividing by the median
            # is loss-free since loc is pinned at 0 anyway
            spread = float(np.median(data))
            if spread <= 0:
                raise FitError(f"{self.name}: degenerate (zero-median) data")
            fit_data = data / spread
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")

            def _ll(params: Tuple) -> float:
                with np.errstate(divide="ignore", invalid="ignore"):
                    return float(np.sum(self.scipy_dist.logpdf(fit_data, *params)))

            # Candidate parameter sets: scipy's optimizer sometimes walks
            # away from a good start, and a moment-based start sometimes
            # pins the support too tightly (a single sample outside a
            # bounded support makes the likelihood -inf) — evaluate every
            # candidate and keep the best finite one.
            candidates: List[Tuple] = []
            guess: Optional[Tuple] = None
            if self.initial_guess is not None:
                try:
                    guess = tuple(float(g) for g in self.initial_guess(fit_data))
                    candidates.append(guess)
                except Exception:
                    guess = None
            if guess is not None:
                try:
                    *shape_guess, loc_guess, scale_guess = guess
                    candidates.append(tuple(self.scipy_dist.fit(
                        fit_data, *shape_guess, loc=loc_guess,
                        scale=scale_guess, **self.fit_kwargs)))
                except Exception:
                    pass
            try:
                candidates.append(tuple(self.scipy_dist.fit(
                    fit_data, **self.fit_kwargs)))
            except Exception as exc:
                if not candidates:
                    raise FitError(f"{self.name}: fit failed: {exc}") from exc
            scored = [(params, _ll(params)) for params in candidates]
            scored = [(p, ll) for p, ll in scored if np.isfinite(ll)]
            if not scored:
                raise FitError(f"{self.name}: degenerate likelihood")
            scipy_params = max(scored, key=lambda pl: pl[1])[0]
        if self.standardize or self.positive_support:
            *shapes, loc, scale = scipy_params
            scipy_params = (*shapes, loc * spread + shift, scale * spread)
        if not all(np.isfinite(scipy_params)):
            raise FitError(f"{self.name}: non-finite fitted parameters")
        params = self._from_scipy(tuple(float(p) for p in scipy_params))
        fitted = self.make(*params)
        ll = fitted.loglik(data)
        if not np.isfinite(ll):
            raise FitError(f"{self.name}: degenerate likelihood")
        return fitted

    def __repr__(self) -> str:
        return f"<Family {self.name}>"


def _gev_lmoment_guess(data: np.ndarray) -> Tuple[float, float, float]:
    """Hosking's L-moment estimator for the GEV, in scipy (c, loc, scale).

    Probability-weighted moments give a closed-form estimate that is a
    reliable MLE starting point (and often a decent fit by itself).
    """
    from scipy.special import gamma as _gamma

    x = np.sort(np.asarray(data, dtype=float))
    n = x.size
    j = np.arange(1, n + 1, dtype=float)
    b0 = x.mean()
    b1 = float(np.sum((j - 1) / (n - 1) * x) / n)
    b2 = float(np.sum((j - 1) * (j - 2) / ((n - 1) * (n - 2)) * x) / n)
    l1 = b0
    l2 = 2 * b1 - b0
    l3 = 6 * b2 - 6 * b1 + b0
    if l2 <= 0:
        raise FitError("gev: non-positive second L-moment")
    t3 = l3 / l2
    c_aux = 2.0 / (3.0 + t3) - np.log(2.0) / np.log(3.0)
    kappa = 7.8590 * c_aux + 2.9554 * c_aux ** 2  # Hosking's kappa == scipy c
    if abs(kappa) < 1e-9:
        kappa = 1e-9
    g = _gamma(1.0 + kappa)
    alpha = l2 * kappa / ((1.0 - 2.0 ** (-kappa)) * g)
    xi = l1 - alpha * (1.0 - g) / kappa
    return (float(kappa), float(xi), float(alpha))


def _build_families() -> Dict[str, Family]:
    fams: Dict[str, Family] = {}

    def add(fam: Family) -> None:
        fams[fam.name] = fam

    # 1. Generalized Extreme Value — paper GEV(k, sigma, mu); scipy c = -k.
    # Subnormal |k| is snapped to the exact Gumbel limit: scipy's c != 0
    # branch computes expm1(c*v)/c, which loses all precision (ppf
    # collapses to loc) once c*v underflows below the normal float range.
    add(Family(
        "gev", "GEV", ("k", "sigma", "mu"), stats.genextreme,
        to_scipy=lambda p: (-p[0] if abs(p[0]) >= np.finfo(float).tiny
                            else 0.0, p[2], p[1]),
        from_scipy=lambda s: (-s[0], s[2], s[1]),
        standardize=True,
        initial_guess=_gev_lmoment_guess,
    ))

    # 2. Burr (Type XII) — paper Burr(alpha, c, k); scipy burr12(c, d=k, scale=alpha).
    add(Family(
        "burr", "Burr", ("alpha", "c", "k"), stats.burr12,
        to_scipy=lambda p: (p[1], p[2], 0.0, p[0]),
        from_scipy=lambda s: (s[3], s[0], s[1]),
        fit_kwargs={"floc": 0.0},
        positive_support=True,
    ))

    # 3. Birnbaum-Saunders — paper BS(beta, gamma); scipy fatiguelife(c=gamma, scale=beta).
    add(Family(
        "birnbaum-saunders", "BS", ("beta", "gamma"), stats.fatiguelife,
        to_scipy=lambda p: (p[1], 0.0, p[0]),
        from_scipy=lambda s: (s[2], s[0]),
        fit_kwargs={"floc": 0.0},
        positive_support=True,
    ))

    # 4. Weibull — paper Weibull(lambda, k); scipy weibull_min(c=k, scale=lambda).
    add(Family(
        "weibull", "Weibull", ("lambda", "k"), stats.weibull_min,
        to_scipy=lambda p: (p[1], 0.0, p[0]),
        from_scipy=lambda s: (s[2], s[0]),
        fit_kwargs={"floc": 0.0},
        positive_support=True,
    ))

    # 5. Log-normal — Lognormal(mu, sigma) of the underlying normal.
    add(Family(
        "lognormal", "Lognormal", ("mu", "sigma"), stats.lognorm,
        to_scipy=lambda p: (p[1], 0.0, np.exp(p[0])),
        from_scipy=lambda s: (np.log(s[2]), s[0]),
        fit_kwargs={"floc": 0.0},
        positive_support=True,
    ))

    # 6. Normal(mu, sigma).
    add(Family(
        "normal", "Normal", ("mu", "sigma"), stats.norm,
        to_scipy=lambda p: (p[0], p[1]),
        from_scipy=lambda s: (s[0], s[1]),
        standardize=True,
    ))

    # 7. Exponential(mu) — mean parameterization (MATLAB expfit).
    add(Family(
        "exponential", "Exponential", ("mu",), stats.expon,
        to_scipy=lambda p: (0.0, p[0]),
        from_scipy=lambda s: (s[1],),
        fit_kwargs={"floc": 0.0},
        positive_support=True,
    ))

    # 8. Gamma(a, b) — shape/scale.
    add(Family(
        "gamma", "Gamma", ("a", "b"), stats.gamma,
        to_scipy=lambda p: (p[0], 0.0, p[1]),
        from_scipy=lambda s: (s[0], s[2]),
        fit_kwargs={"floc": 0.0},
        positive_support=True,
    ))

    # 9. Rayleigh(b).
    add(Family(
        "rayleigh", "Rayleigh", ("b",), stats.rayleigh,
        to_scipy=lambda p: (0.0, p[0]),
        from_scipy=lambda s: (s[1],),
        fit_kwargs={"floc": 0.0},
        positive_support=True,
    ))

    # 10. Generalized Pareto(k, sigma) with threshold 0 (MATLAB gpfit).
    add(Family(
        "pareto", "GenPareto", ("k", "sigma"), stats.genpareto,
        to_scipy=lambda p: (p[0], 0.0, p[1]),
        from_scipy=lambda s: (s[0], s[2]),
        fit_kwargs={"floc": 0.0},
        positive_support=True,
    ))

    # 11. Logistic(mu, s).
    add(Family(
        "logistic", "Logistic", ("mu", "s"), stats.logistic,
        to_scipy=lambda p: (p[0], p[1]),
        from_scipy=lambda s: (s[0], s[1]),
        standardize=True,
    ))

    # 12. Log-logistic(mu, sigma) — MATLAB parameterization of log(x);
    #     scipy fisk(c = 1/sigma, scale = exp(mu)).
    add(Family(
        "loglogistic", "Loglogistic", ("mu", "sigma"), stats.fisk,
        to_scipy=lambda p: (1.0 / p[1], 0.0, np.exp(p[0])),
        from_scipy=lambda s: (np.log(s[2]), 1.0 / s[0]),
        fit_kwargs={"floc": 0.0},
        positive_support=True,
    ))

    # 13. Nakagami(mu, omega); scipy nakagami(nu=mu, scale=sqrt(omega)).
    add(Family(
        "nakagami", "Nakagami", ("mu", "omega"), stats.nakagami,
        to_scipy=lambda p: (p[0], 0.0, np.sqrt(p[1])),
        from_scipy=lambda s: (s[0], s[2] ** 2),
        fit_kwargs={"floc": 0.0},
        positive_support=True,
    ))

    # 14. Inverse Gaussian(mu, lambda); scipy invgauss(mu=mu/lambda, scale=lambda).
    add(Family(
        "inverse-gaussian", "InvGaussian", ("mu", "lambda"), stats.invgauss,
        to_scipy=lambda p: (p[0] / p[1], 0.0, p[1]),
        from_scipy=lambda s: (s[0] * s[2], s[2]),
        fit_kwargs={"floc": 0.0},
        positive_support=True,
    ))

    # 15. Extreme Value (MATLAB 'ev' = Gumbel for minima): gumbel_l(mu, sigma).
    add(Family(
        "extreme-value", "ExtremeValue", ("mu", "sigma"), stats.gumbel_l,
        to_scipy=lambda p: (p[0], p[1]),
        from_scipy=lambda s: (s[0], s[1]),
        standardize=True,
    ))

    # 16. Half-normal(sigma).
    add(Family(
        "half-normal", "HalfNormal", ("sigma",), stats.halfnorm,
        to_scipy=lambda p: (0.0, p[0]),
        from_scipy=lambda s: (s[1],),
        fit_kwargs={"floc": 0.0},
        positive_support=True,
    ))

    # 17. Rician(s, sigma); scipy rice(b=s/sigma, scale=sigma).
    add(Family(
        "rician", "Rician", ("s", "sigma"), stats.rice,
        to_scipy=lambda p: (p[0] / p[1], 0.0, p[1]),
        from_scipy=lambda s: (s[0] * s[2], s[2]),
        fit_kwargs={"floc": 0.0},
        positive_support=True,
    ))

    # 18. t location-scale(mu, sigma, nu).
    add(Family(
        "t-location-scale", "tLocationScale", ("mu", "sigma", "nu"), stats.t,
        to_scipy=lambda p: (p[2], p[0], p[1]),
        from_scipy=lambda s: (s[1], s[2], s[0]),
        standardize=True,
    ))

    return fams


FAMILIES: Dict[str, Family] = _build_families()


def get_family(name: str) -> Family:
    try:
        return FAMILIES[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown distribution family {name!r}; available: {sorted(FAMILIES)}") from None
