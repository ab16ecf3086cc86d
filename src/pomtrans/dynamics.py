"""Linearized frequency-domain model of the piezo-optomechanical transducer.

All rates and frequencies are angular (rad/s) and live in the frame rotating
with the pump laser: the pump sits at zero, the transduced signal appears
near the mechanical resonance, and the ring detunings ``delta_1``/``delta_2``
locate the bare optical resonances relative to the pump.

The modes and couplings of the three-mode equations of motion are written
once, as data, by :func:`linear_model`, and :func:`transducer_graph` generates
the signal-flow graph from them.  The closed-form responses here are
algebraically identical to solving that graph; both routes are exposed and
cross-checked in the test suite.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, replace
from importlib import resources
from typing import Mapping

import numpy as np

from . import sfg
from .constants import HBAR, SPEED_OF_LIGHT, TWO_PI
from .errors import ModelViolationError, ParameterError, SingularityError, require_number

_SINGULARITY_RTOL = 1e-14
_GAMMA_M_CHECK_RTOL = 0.02
#: largest accepted value of a rate the closed forms square.  A Python float
#: ``x**2`` raises on overflow; below this bound squares such as
#: (kappa_1 + kappa_02 + kappa_ex2)^2 and 16 J^2 stay finite.
_SQUARED_RATE_MAX = math.sqrt(sys.float_info.max) / 4
_SQUARED_RATE_CONDITION = "must be <= {rate:.4g} {unit} so that its square stays finite"
_RAD_S_CONDITION = "must have magnitude <= {rate:.4g} {unit} so that its rad/s value stays finite"
# Gamma_0 is not squared, but listing it names it before the Gamma >= Gamma_0 check
_SQUARED_RATES = ("Gamma_0", "Gamma", "g_em", "J", "kappa_1", "kappa_02", "kappa_ex2", "g_om")


@dataclass(frozen=True)
class TransducerParams:
    """Rate/detuning parameter set of the transducer (all angular, rad/s).

    ``gamma_ex`` may be supplied directly (it is normally a measured quantity);
    when omitted it is derived from the electromechanical coupling, see
    :func:`derived_rates`.  ``gamma_m_supplied`` is an optional consistency
    input: it must agree with the derived total mechanical linewidth within
    2 %.  ``lambda_l`` (pump vacuum wavelength, metres) is used only by the
    pump-power mapping.  Every field is checked here, once: each is a real
    number or a real array, never a boolean, and a record with a zero
    kappa_1, kappa_2 or gamma_m, which the closed forms divide by, is
    rejected when it is built.
    """

    omega_m: float
    gamma_0: float
    Gamma_0: float
    Gamma: float
    g_em: float
    J: float
    delta_1: float
    delta_2: float
    kappa_1: float
    kappa_02: float
    kappa_ex2: float
    g_om: float
    gamma_ex: float | None = None
    gamma_m_supplied: float | None = None
    lambda_l: float | None = None

    def __post_init__(self):
        for name, field in self.__dataclass_fields__.items():
            value = getattr(self, name)
            if type(value) is not float:
                if value is None and field.default is None:
                    continue
                require_number(value, name, arrays=True)
            # abs(x) < inf is false exactly for NaN and +-inf
            _require(abs(value) < math.inf, name, value, "must be finite")
        for name in ("gamma_0", "Gamma_0", "Gamma", "g_em", "J", "kappa_1",
                     "kappa_02", "kappa_ex2", "g_om", "gamma_ex"):
            value = getattr(self, name)
            if value is not None:
                _require(value >= 0, name, value, "must be >= 0")
        for name in _SQUARED_RATES:
            value = getattr(self, name)
            _require(value <= _SQUARED_RATE_MAX, name, value, _SQUARED_RATE_CONDITION,
                     _SQUARED_RATE_MAX)
        _require(self.omega_m > 0, "omega_m", self.omega_m, "must be > 0")
        if self.lambda_l is not None:
            _require(self.lambda_l > 0, "lambda_l", self.lambda_l, "must be > 0")
        if not _holds(self.Gamma >= self.Gamma_0):
            raise ParameterError("total microwave linewidth Gamma must be >= Gamma_0")
        _require((self.Gamma != 0) | (self.g_em == 0), "Gamma", self.Gamma,
                 "must be > 0 when g_em is nonzero")

        # every closed form divides by these, so a record with a zero one is never built
        gamma_m, _, kappa_2 = _mechanical_rates(self)
        for name, value in (("kappa_1", self.kappa_1), ("kappa_2", kappa_2), ("gamma_m", gamma_m)):
            _require(value != 0, name, value, "must be > 0 where it divides")
        if self.gamma_ex is not None:
            _require(self.gamma_ex <= gamma_m * (1 + 1e-12), "gamma_ex", self.gamma_ex,
                     "must not exceed the total mechanical linewidth gamma_m = "
                     "{rate:.6g} {unit}", gamma_m)
        if self.gamma_m_supplied is not None:
            _require(abs(self.gamma_m_supplied - gamma_m) <= _GAMMA_M_CHECK_RTOL * gamma_m,
                     "gamma_m_supplied", self.gamma_m_supplied,
                     "must agree within 2% with the derived value gamma_0 + 4 g_em^2 / Gamma "
                     "= {rate:.6g} {unit}", gamma_m)


def _mechanical_rates(p: TransducerParams):
    """(gamma_m, derived gamma_ex, kappa_2) of :func:`derived_rates`."""
    Gamma = p.Gamma
    if not _holds(Gamma != 0):
        # g_em = Gamma_0 = 0 where Gamma = 0, so a unit divisor gives gamma_0 + 0.0 and 0.0 there
        Gamma = np.where(Gamma == 0, 1.0, Gamma) if np.ndim(Gamma) else 1.0
    return (p.gamma_0 + 4 * p.g_em**2 / Gamma,
            4 * p.g_em**2 * (Gamma - p.Gamma_0) / Gamma**2,
            p.kappa_02 + p.kappa_ex2)


def _holds(ok) -> bool:
    """Whether ``ok`` is true everywhere; a plain bool (scalar fields) skips numpy."""
    return ok if isinstance(ok, bool) else bool(np.all(ok))


def _first(mask, value) -> float:
    """``value`` at the first element where the broadcast ``mask`` holds."""
    return float(np.broadcast_to(value, np.shape(mask))[mask][0])


class _RangeError(ParameterError):
    """A value out of range, raised by :func:`_require`.

    It keeps its parts, so that :func:`params_from_dict` can restate it for
    the file's ``*_hz`` key, in Hz.
    """

    def __init__(self, template: str, name: str, value: float, rate: float | None):
        super().__init__(template.format(name=name, value=value, rate=rate, unit="rad/s"))
        self.template, self.name, self.value, self.rate = template, name, value, rate


def _require(ok, name: str, value, condition: str, rate=None) -> None:
    """Raise :class:`ParameterError` naming ``name`` unless ``ok`` holds everywhere.

    ``condition`` may quote ``rate`` (rad/s, broadcasting like ``value``) as
    ``{rate}`` and its unit as ``{unit}``.
    """
    if not _holds(ok):
        bad = np.logical_not(ok)
        raise _RangeError("{name} " + condition + ", got {value}", name, _first(bad, value),
                          None if rate is None else _first(bad, rate))


def _require_passive(eta, what: str) -> None:
    """Raise ``ModelViolationError`` naming ``what`` unless ``eta`` is finite and <= 1 + 1e-9."""
    if not _holds(eta <= 1 + 1e-9):  # false for NaN too
        if not np.all(np.isfinite(eta)):
            raise ModelViolationError(
                f"{what} is not finite; a rate is too small or too large to evaluate")
        raise ModelViolationError(
            f"{what} exceeded unity (max {float(np.max(eta)):.12g}); parameter set is unphysical")


@dataclass(frozen=True)
class DerivedRates:
    """Rates derived from a :class:`TransducerParams` record.

    ``gamma_ex`` is the effective value (the supplied one when present);
    ``gamma_ex_derived`` is always the value implied by the electromechanical
    coupling so callers can report the relative discrepancy.
    """

    gamma_m: float
    kappa_2: float
    gamma_ex: float
    gamma_ex_derived: float

    @property
    def gamma_ex_discrepancy(self) -> float:
        """Relative difference between effective and derived gamma_ex."""
        derived = np.float64(self.gamma_ex_derived)  # divides by zero to inf or NaN
        with np.errstate(divide="ignore", invalid="ignore"):
            # fmax turns the NaN of 0/0, where both rates are zero, into 0.0
            out = np.fmax(abs(self.gamma_ex - derived) / derived, 0.0)
        return out if isinstance(out, np.ndarray) else float(out)


def derived_rates(p: TransducerParams) -> DerivedRates:
    """Total mechanical linewidth, second-ring linewidth and gamma_ex.

    gamma_m = gamma_0 + 4 g_em^2 / Gamma, kappa_2 = kappa_02 + kappa_ex2 and
    gamma_ex = 4 g_em^2 (Gamma - Gamma_0) / Gamma^2 unless a supplied value
    overrides it (the derived value is still reported alongside).  Array
    parameter fields broadcast.
    """
    gamma_m, gamma_ex_derived, kappa_2 = _mechanical_rates(p)
    gamma_ex = p.gamma_ex if p.gamma_ex is not None else gamma_ex_derived
    return DerivedRates(gamma_m=gamma_m, kappa_2=kappa_2,
                        gamma_ex=gamma_ex, gamma_ex_derived=gamma_ex_derived)


def with_derived_gamma_ex(p: TransducerParams) -> TransducerParams:
    """Copy of ``p`` with any supplied gamma_ex dropped in favour of the derived relation.

    The supplied gamma_m consistency value is dropped too, since it no longer
    holds once g_em changes.
    """
    if p.gamma_ex is None and p.gamma_m_supplied is None:
        return p  # nothing to drop, and a record is immutable
    return replace(p, gamma_ex=None, gamma_m_supplied=None)


def _susceptibility(omega, centre, halfwidth):
    """1 / (-i (omega - centre) + halfwidth): the Lorentzian response of one mode."""
    return 1.0 / (-1j * (omega - centre) + halfwidth)


def _modes(p: TransducerParams) -> dict:
    """``{mode: (centre, halfwidth)}``: the rings a1 and a2 at delta_1 and delta_2 with
    kappa_1/2 and kappa_2/2, the mechanics b at omega_m with gamma_m/2."""
    gamma_m, _, kappa_2 = _mechanical_rates(p)
    return {"a1": (p.delta_1, p.kappa_1 / 2), "a2": (p.delta_2, kappa_2 / 2),
            "b": (p.omega_m, gamma_m / 2)}


def susceptibilities(p: TransducerParams, omega):
    """``(chi_01, chi_02, chi_m)``, :func:`_susceptibility` of a1, a2, b; ``omega`` broadcasts."""
    w = np.asarray(omega)
    return tuple(_susceptibility(w, *mode) for mode in _modes(p).values())


@dataclass(frozen=True)
class OperatingPoint:
    """Parameter set plus the linearization point of the pump field.

    ``intra_ring_photons`` is |a1|^2, the mean photon number of the pump in
    the first ring; ``pump_phase`` is the phase of the mean field a1.  Both
    must be finite, and either may be an array broadcasting against the
    parameter fields.
    """

    params: TransducerParams
    intra_ring_photons: float
    pump_phase: float = 0.0

    def __post_init__(self):
        require_number(self.intra_ring_photons, "intra_ring_photons", arrays=True)
        require_number(self.pump_phase, "pump_phase", arrays=True)
        _require(self.intra_ring_photons >= 0, "intra_ring_photons", self.intra_ring_photons,
                 "must be >= 0")
        for name in ("intra_ring_photons", "pump_phase"):
            value = getattr(self, name)
            _require(abs(value) < math.inf, name, value, "must be finite")

    @property
    def a1(self) -> complex:
        a1 = np.sqrt(self.intra_ring_photons) * np.exp(1j * self.pump_phase)
        return complex(a1) if np.ndim(a1) == 0 else a1


def _check_denominator(delta, loops, omega, what: str) -> None:
    """Raise :class:`SingularityError` at each ``omega`` where |delta| < 1e-14 (1 + sum |loop|)."""
    bad = np.abs(delta) < _SINGULARITY_RTOL * sum(map(np.abs, loops), 1.0)
    if np.any(bad):
        offending = np.broadcast_to(omega, bad.shape)[bad] if np.ndim(omega) else omega
        raise SingularityError(offending, f"{what} denominator vanished")


def transduction_amplitude(op: OperatingPoint, omega):
    """Microwave-in to optics-out conversion amplitude at signal frequency ``omega``.

    Closed form from the equations of motion: the single conversion path
    carries sqrt(kappa_ex2) sqrt(gamma_ex) chi_01 chi_02 chi_m (i g_om a1)(i J)
    over the graph determinant 1 + g_om^2 |a1|^2 chi_01 chi_m + J^2 chi_01 chi_02.
    ``omega``, the parameter fields and the pump level broadcast together.
    """
    p = op.params
    r = derived_rates(p)
    c01, c02, c_m = susceptibilities(p, omega)
    loop_om = p.g_om**2 * op.intra_ring_photons * c01 * c_m
    loop_12 = p.J**2 * c01 * c02
    delta = 1 + loop_om + loop_12
    _check_denominator(delta, (loop_om, loop_12), omega, "transduction")
    num = (
        np.sqrt(p.kappa_ex2) * np.sqrt(r.gamma_ex)
        * c01 * c02 * c_m * (1j * p.g_om * op.a1) * (1j * p.J)
    )
    out = num / delta
    return complex(out) if np.ndim(out) == 0 else out


def linear_model(op: OperatingPoint) -> tuple[dict, dict, dict]:
    """The linearized equations of motion at ``op`` as data: ``(modes, C, D)``.

    Mode v of (a1, a2, b) obeys x_v = chi_v(omega) sum_u C[u, v] x_u, chi_v the
    :func:`_susceptibility` at modes[v] = (centre, halfwidth), and the bus output
    is a_out = sum_u D[u] x_u.  So M(omega) x = B s with M(omega) =
    diag(1/chi(omega)) - C over the modes and B = C from the ports c_in, a_in, f_*.
    """
    p, a1 = op.params, op.a1
    couplings = {  # the equations of b, then a1, then a2
        ("c_in", "b"): math.sqrt(derived_rates(p).gamma_ex), ("f_m", "b"): math.sqrt(p.gamma_0),
        ("a1", "b"): 1j * p.g_om * np.conj(a1), ("b", "a1"): 1j * p.g_om * a1,
        ("a2", "a1"): 1j * p.J, ("f_01", "a1"): math.sqrt(p.kappa_1), ("a1", "a2"): 1j * p.J,
        ("f_02", "a2"): math.sqrt(p.kappa_02), ("a_in", "a2"): math.sqrt(p.kappa_ex2),
    }
    return _modes(p), couplings, {"a2": math.sqrt(p.kappa_ex2), "a_in": -1.0}


def transducer_graph(op: OperatingPoint) -> sfg.SignalFlowGraph:
    """Signal-flow graph of :func:`linear_model`: gain C[u, v] chi_v(omega) into mode v, D[u] out.

    Sources are the microwave input ``c_in``, the optical bus input ``a_in``
    and the intrinsic noise ports ``f_m``, ``f_01``, ``f_02``; the sink is the
    bus output ``a_out``.  Each edge into mode v evaluates chi_v from v's
    (centre, halfwidth) in the mode table at the frequency it is given.
    """
    modes, couplings, outputs = linear_model(op)
    edges = [sfg.SfgEdge(u, v, lambda w, c=c, mode=modes[v]: c * _susceptibility(w, *mode))
             for (u, v), c in couplings.items()]
    edges += [sfg.SfgEdge(u, "a_out", lambda w, d=d: d) for u, d in outputs.items()]
    return sfg.SignalFlowGraph(edges)


def efficiency(op: OperatingPoint, omega):
    """Transduction efficiency |amplitude|^2 in [0, 1].

    Values above 1 + 1e-9 signal an invalid (non-passive) parameter set and
    raise :class:`ModelViolationError`, and so does a NaN or infinite value;
    nothing is clamped.
    """
    eta = np.abs(transduction_amplitude(op, omega)) ** 2
    _require_passive(eta, "efficiency")
    return float(eta) if np.ndim(eta) == 0 else eta


def intra_ring_gain(p: TransducerParams, omega):
    """Pump amplitude ratio a1/a_in of the coupled-ring pair at ``omega``.

    i J chi_01 chi_02 sqrt(kappa_ex2) / (1 + J^2 chi_01 chi_02); its squared
    magnitude (units of seconds) converts input photon flux to intra-ring
    photon number.
    """
    c01, c02, _ = susceptibilities(p, omega)
    loop = p.J**2 * c01 * c02
    delta = 1 + loop
    _check_denominator(delta, (loop,), omega, "ring-pair")
    out = 1j * p.J * c01 * c02 * np.sqrt(p.kappa_ex2) / delta
    return complex(out) if np.ndim(out) == 0 else out


def enhancement_peak_value(p: TransducerParams) -> float:
    """On-resonance cavity enhancement factor (squared gain at the split peaks).

    64 J^2 kappa_ex2 / ((kappa_1+kappa_2)^2 |(kappa_1-kappa_2)^2 - 16 J^2|),
    in seconds.  Array parameter fields broadcast.
    """
    k2 = derived_rates(p).kappa_2
    num = 64 * p.J**2 * p.kappa_ex2
    den = (p.kappa_1 + k2) ** 2 * abs((p.kappa_1 - k2) ** 2 - 16 * p.J**2)
    _require(den != 0, "ring-pair enhancement denominator "
             "(kappa_1 + kappa_2)^2 |(kappa_1 - kappa_2)^2 - 16 J^2|", den, "must be nonzero")
    return num / den


@dataclass(frozen=True)
class EnhancementResonances:
    """Stationary points of the cavity enhancement factor.

    When 8 J^2 <= kappa_1^2 + kappa_2^2 the splitting collapses; both values
    equal delta_1 and ``degenerate`` is set instead of raising.  Array
    parameter fields give arrays of the broadcast shape for all three.
    """

    lower: float
    upper: float
    degenerate: bool = False


def enhancement_resonances(p: TransducerParams) -> EnhancementResonances:
    """Frequencies maximizing the pump enhancement: delta_1 +/- J sqrt(1 - (k1^2+k2^2)/(8J^2))."""
    k2 = derived_rates(p).kappa_2
    with np.errstate(divide="ignore", invalid="ignore"):
        discr = 1.0 - np.divide(p.kappa_1**2 + k2**2, 8 * p.J**2)
    degenerate = ~(discr > 0)  # J = 0 gives -inf, or NaN when kappa_1 = kappa_2 = 0 too
    off = p.J * np.sqrt(np.where(degenerate, 0.0, discr))
    lower, upper = p.delta_1 - off, p.delta_1 + off
    if np.ndim(lower) == 0:
        return EnhancementResonances(float(lower), float(upper), bool(degenerate))
    return EnhancementResonances(lower, upper, degenerate)


def photon_flux(p: TransducerParams, power):
    """Input photon flux |a_in|^2 = P lambda_L / (2 pi hbar c) in photons/s."""
    if p.lambda_l is None:
        raise ParameterError("lambda_l (pump wavelength) is required for power mapping")
    _require(power >= 0, "power", power, "must be >= 0")
    with np.errstate(over="ignore"):
        flux = power * p.lambda_l / (TWO_PI * HBAR * SPEED_OF_LIGHT)
    _require(flux < math.inf, "power", power, "must give a finite photon flux")
    return flux


def pump_power_to_photons(p: TransducerParams, power,
                          pump_offset: float | None = None):
    """Intra-ring pump photon number |a1|^2 produced by ``power`` watts.

    The pump is placed at ``pump_offset`` (rad/s, rotating frame); by default
    it sits on the lower enhancement resonance of the ring pair.  ``power``
    and ``pump_offset`` broadcast together.
    """
    if pump_offset is None:
        pump_offset = enhancement_resonances(p).lower
    gain = intra_ring_gain(p, pump_offset)
    return abs(gain) ** 2 * photon_flux(p, power)


# --- parameter file I/O ----------------------------------------------------

#: JSON key -> (field name, kind); frequencies are plain Hz in files and
#: converted to angular rad/s internally.
_PARAM_KEYS: Mapping[str, tuple[str, str]] = {
    "omega_m_hz": ("omega_m", "freq"),
    "gamma_0_hz": ("gamma_0", "freq"),
    "Gamma_0_hz": ("Gamma_0", "freq"),
    "Gamma_hz": ("Gamma", "freq"),
    "g_em_hz": ("g_em", "freq"),
    "gamma_ex_hz": ("gamma_ex", "freq"),
    "gamma_m_hz": ("gamma_m_supplied", "freq"),
    "J_hz": ("J", "freq"),
    "delta_1_hz": ("delta_1", "freq"),
    "delta_2_hz": ("delta_2", "freq"),
    "kappa_1_hz": ("kappa_1", "freq"),
    "kappa_02_hz": ("kappa_02", "freq"),
    "kappa_ex2_hz": ("kappa_ex2", "freq"),
    "g_om_hz": ("g_om", "freq"),
    "lambda_l_m": ("lambda_l", "length"),
}

#: keys of the fields without a default
_REQUIRED_KEYS = tuple(key for key, (name, _) in _PARAM_KEYS.items()
                       if TransducerParams.__dataclass_fields__[name].default is MISSING)


def _rad_s(name: str, hz: float, squared: bool = False) -> float:
    """``hz`` in rad/s; a finite ``hz`` that overflows there is named as ``name`` with its Hz bound.

    A positive ``squared`` rate gets the bound of the rates the closed forms square.
    """
    rad_s = TWO_PI * hz
    if abs(rad_s) == math.inf and abs(hz) < math.inf:
        condition, bound = ((_SQUARED_RATE_CONDITION, _SQUARED_RATE_MAX) if squared and hz > 0
                            else (_RAD_S_CONDITION, sys.float_info.max))
        raise ParameterError(f"{name} {condition.format(rate=bound / TWO_PI, unit='Hz')}, "
                             f"got {hz}")
    return rad_s


def params_from_dict(data: Mapping) -> TransducerParams:
    """Build a parameter record from a flat mapping with ``*_hz`` keys (Hz)."""
    unknown = sorted(set(data) - set(_PARAM_KEYS))
    if unknown:
        raise ParameterError(f"unknown parameter keys: {unknown}")
    missing = sorted(k for k in _REQUIRED_KEYS if k not in data)
    if missing:
        raise ParameterError(f"missing parameter keys: {missing}")
    kwargs = {}
    for key, raw in data.items():
        field_name, kind = _PARAM_KEYS[key]
        require_number(raw, f"parameter {key}")
        value = float(raw)
        if kind == "freq":
            value = _rad_s(key, value, squared=field_name in _SQUARED_RATES)
        kwargs[field_name] = value
    try:
        return TransducerParams(**kwargs)
    except _RangeError as exc:
        # restated for the file's key in Hz; a message that quotes no rate and a value
        # of 0.0, inf or nan reads the same in both units and is kept
        key = next((k for k, (name, kind) in _PARAM_KEYS.items()
                    if name == exc.name and kind == "freq"), None)
        if key is None or (exc.rate is None and not 0 < abs(exc.value) < math.inf):
            raise
        raise ParameterError(exc.template.format(
            name=key, value=float(data[key]),
            rate=None if exc.rate is None else exc.rate / TWO_PI, unit="Hz")) from exc


def params_to_dict(p: TransducerParams) -> dict:
    """Inverse of :func:`params_from_dict` (frequencies back to plain Hz)."""
    out = {}
    for key, (field_name, kind) in _PARAM_KEYS.items():
        value = getattr(p, field_name)
        if value is None:
            continue
        out[key] = value / TWO_PI if kind == "freq" else value
    return out


def load_params(path=None) -> TransducerParams:
    """Read a parameter JSON file (flat object, unknown keys rejected).

    Without a path, the bundled nominal parameter set.  Every JSON number is
    read as a float, so an integer literal beyond float range reads as inf.
    """
    if path is None:
        return params_from_dict(json.loads(
            resources.files("pomtrans.data").joinpath("nominal_params.json").read_text("utf-8"),
            parse_int=float))
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_int=float)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParameterError(f"parameter file {path} must contain a flat JSON object")
    return params_from_dict(data)
