"""Scenario files: the JSON configuration consumed by the CLI.

A scenario pins everything needed to reproduce a run: antenna counts, an
SNR grid in dB, target rates in bits per channel use, the correlation
model, trial counts and the master seed, plus numerical knobs (mean
variant, fixed-point tolerance and max_iter; fd_step is accepted but read by
no verb, since the Gaussian models use the exact covariance).
Each key is checked against one table: unknown keys are rejected, integers
must be JSON integers (not 2.0 or true), numbers must be finite, and every
SNR needs a positive finite linear value. The SNR grid is converted to
linear rho here, once.
"""

import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional, Tuple

from .channel import (
    CorrelationPair,
    SystemConfig,
    build_exponential_correlation,
    load_correlation_json,
)

__all__ = ["Scenario", "ScenarioError", "load_scenario"]


class ScenarioError(ValueError):
    """Scenario file missing, unparseable, or with a key outside its rule."""


def _number(v) -> bool:
    # False for bool, NaN, +-inf and an integer no float can hold
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _numbers(v) -> bool:
    return _number(v) or (type(v) is list and len(v) > 0 and all(map(_number, v)))


_COUNT = (lambda v: type(v) is int and v >= 1, "an integer >= 1")
_POSITIVE = (lambda v: _number(v) and v > 0, "a finite number > 0")
_ZETA = (lambda v: _number(v) and 0 <= v < 1, "a number in [0, 1)")
_PATH = (lambda v: type(v) is str, "a string")
_GRID = (_numbers, "a finite number or a non-empty array of finite numbers")

# the keys besides "type" that each correlation type takes, all required
_CORRELATIONS = {
    "identity": {},
    "exponential": {"zeta_r": _ZETA, "zeta_t": _ZETA},
    "file": {"r_path": _PATH, "t_path": _PATH},
}

# each scenario key -> (its check, what the error says the value must be)
_KEYS = {
    "M": _COUNT,
    "N": _COUNT,
    "snr_db": _GRID,
    "rate_bpcu": _GRID,
    "correlation": (lambda v: type(v) is dict and v.get("type") in list(_CORRELATIONS),
                    'an object whose "type" is "identity", "exponential" or "file"'),
    "trials": _COUNT,
    # Philox keys are 64-bit: a larger seed would alias a smaller one
    "seed": (lambda v: type(v) is int and 0 <= v < 2**64, "an integer in [0, 2^64)"),
    "mean_variant": (lambda v: v in ("taylor", "as-printed"), '"taylor" or "as-printed"'),
    "fd_step": _POSITIVE,
    "tolerance": (lambda v: _number(v) and 0 < v <= 1e-3, "a finite number in (0, 1e-3]"),
    "max_iter": _COUNT,
}


def _check(doc: dict, rules: dict, required, where: str) -> None:
    unknown = sorted(set(doc) - set(rules))
    if unknown:
        raise ScenarioError(f"{where} has unknown keys {unknown}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ScenarioError(f"{where} lacks required keys {missing}")
    for key, value in doc.items():
        check, words = rules[key]
        if not check(value):
            raise ScenarioError(f"{where} key '{key}' must be {words}, got {value!r}")


def _validate(doc) -> None:
    if type(doc) is not dict:
        raise ScenarioError(f"a scenario must be a JSON object, got {type(doc).__name__}")
    _check(doc, _KEYS, ("M", "N", "correlation"), "scenario")
    fields = dict(doc["correlation"])
    rules = _CORRELATIONS[fields.pop("type")]
    _check(fields, rules, rules, "correlation")


def _as_tuple(v) -> Optional[Tuple[float, ...]]:
    if v is None:
        return None
    if isinstance(v, (int, float)):
        return (float(v),)
    return tuple(float(x) for x in v)


def _linear(snr_db) -> Tuple[float, ...]:
    rhos = []
    for db in snr_db:
        try:
            rho = 10.0 ** (db / 10.0)
        except OverflowError:
            rho = math.inf
        if not 0.0 < rho < math.inf:
            raise ScenarioError(f"snr_db {db} has no positive finite linear value")
        rhos.append(rho)
    return tuple(rhos)


@dataclass(frozen=True)
class Scenario:
    """A validated scenario; rho[i] = 10^(snr_db[i]/10) is the linear SNR grid."""

    m: int
    n: int
    snr_db: Optional[Tuple[float, ...]]
    rho: Optional[Tuple[float, ...]]
    rate_bpcu: Optional[Tuple[float, ...]]
    correlation: dict
    trials: Optional[int]
    seed: Optional[int]
    mean_variant: str
    fd_step: float  # read by no verb; a step for direct sinr_covariance calls
    tolerance: float
    max_iter: int
    base_dir: str

    def config(self, rho: float) -> SystemConfig:
        return SystemConfig(M=self.m, N=self.n, rho=rho)

    def build_pair(self) -> CorrelationPair:
        """The correlation pair; ScenarioError names a file that is missing,
        unreadable, of the wrong size or not a valid correlation matrix."""
        c = self.correlation
        kind = c["type"]
        if kind == "identity":
            return CorrelationPair.identity(self.n, self.m)
        if kind == "exponential":
            return CorrelationPair(
                build_exponential_correlation(self.n, c["zeta_r"]),
                build_exponential_correlation(self.m, c["zeta_t"]),
            )
        paths = [os.path.join(self.base_dir, c[key]) for key in ("r_path", "t_path")]
        files = f"correlation files {paths[0]} (R), {paths[1]} (T)"
        try:
            pair = CorrelationPair(*map(load_correlation_json, paths))
        except (OSError, ValueError, TypeError) as exc:
            raise ScenarioError(f"{files}: {exc}") from exc
        if (pair.n, pair.m) != (self.n, self.m):
            raise ScenarioError(f"{files} are {pair.n}x{pair.n} and {pair.m}x{pair.m}, "
                                f"the scenario needs {self.n}x{self.n} and {self.m}x{self.m}")
        return pair


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file. Raises ScenarioError on any defect."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from exc
    _validate(doc)
    if doc["N"] < doc["M"]:
        raise ScenarioError(f"need N >= M, got M={doc['M']}, N={doc['N']}")
    snr_db = _as_tuple(doc.get("snr_db"))
    return Scenario(
        m=doc["M"],
        n=doc["N"],
        snr_db=snr_db,
        rho=_linear(snr_db) if snr_db else None,
        rate_bpcu=_as_tuple(doc.get("rate_bpcu")),
        correlation=doc["correlation"],
        trials=doc.get("trials"),
        seed=doc.get("seed"),
        mean_variant=doc.get("mean_variant", "taylor"),
        fd_step=doc.get("fd_step", 1e-3),
        tolerance=doc.get("tolerance", 1e-12),
        max_iter=doc.get("max_iter", 10000),
        base_dir=os.path.dirname(os.path.abspath(path)),
    )
