"""Scenario files: the JSON configuration consumed by the CLI.

A scenario pins everything needed to reproduce a run: antenna counts, an
SNR grid in dB, target rates in bits per channel use, the correlation
model, trial counts and the master seed, plus numerical knobs (mean
variant, fixed-point tolerance and max_iter; fd_step is accepted but read by
no verb, since the Gaussian models use the exact covariance).
Unknown keys are rejected, and so is an SNR whose linear value is not a
positive finite float. The SNR grid is converted to linear rho here, once.
"""

import json
import math
import os
from dataclasses import dataclass
from typing import Optional, Tuple

import jsonschema

from .channel import (
    CorrelationPair,
    SystemConfig,
    build_exponential_correlation,
    load_correlation_json,
)

__all__ = ["Scenario", "ScenarioError", "load_scenario", "SCENARIO_SCHEMA"]


class ScenarioError(ValueError):
    """Scenario file missing, unparseable, or failing schema validation."""


_number_or_array = {
    "oneOf": [
        {"type": "number"},
        {"type": "array", "items": {"type": "number"}, "minItems": 1},
    ]
}

SCENARIO_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["M", "N", "correlation"],
    "properties": {
        "M": {"type": "integer", "minimum": 1},
        "N": {"type": "integer", "minimum": 1},
        "snr_db": _number_or_array,
        "rate_bpcu": _number_or_array,
        "correlation": {
            "oneOf": [
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["type"],
                    "properties": {"type": {"const": "identity"}},
                },
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["type", "zeta_r", "zeta_t"],
                    "properties": {
                        "type": {"const": "exponential"},
                        "zeta_r": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
                        "zeta_t": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
                    },
                },
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["type", "r_path", "t_path"],
                    "properties": {
                        "type": {"const": "file"},
                        "r_path": {"type": "string"},
                        "t_path": {"type": "string"},
                    },
                },
            ]
        },
        "trials": {"type": "integer", "minimum": 1},
        # Philox keys are 64-bit: a larger seed would alias a smaller one
        "seed": {"type": "integer", "minimum": 0, "maximum": 18446744073709551615},
        "mean_variant": {"enum": ["taylor", "as-printed"]},
        "fd_step": {"type": "number", "exclusiveMinimum": 0},
        "tolerance": {"type": "number", "exclusiveMinimum": 0},
        "max_iter": {"type": "integer", "minimum": 1},
    },
}


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
    try:
        jsonschema.validate(doc, SCENARIO_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ScenarioError(f"scenario schema violation: {exc.message}") from exc
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
