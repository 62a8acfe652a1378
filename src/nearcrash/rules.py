"""Near-crash decision rules.

Two rules must pass together. The size rule requires the height-TTC under
a tight threshold and the width-TTC under a looser one, both positive;
requiring both catches the case where a truncated box makes the height
grow while the width shrinks. The motion rule bounds the product of the
horizontal drift rate, the normalized center offset, and the normalized
bottom-edge distance from the frame bottom, which separates collision
courses and center-bound drifts from safe passes. The drift rate omega
is a float; the center and bottom edge are the track's newest sample's.

A per-track cooldown suppresses re-triggering on the same encounter; the
time of a track's last trigger is kept on the track itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .config import FrameGeometry, Record, RuleConfig
from .ttc import TtcEstimate, normalized_center


def check_size_rule(ttc: Optional[TtcEstimate], cfg: RuleConfig) -> bool:
    """True iff both TTCs exist, are positive, and are under their thresholds."""
    if ttc is None or ttc.ttc_h is None or ttc.ttc_w is None:
        return False
    return 0 < ttc.ttc_h < cfg.delta and 0 < ttc.ttc_w < cfg.phi


def check_motion_rule(
    omega: Optional[float],
    latest_cx: float,
    latest_by: float,
    camera: FrameGeometry,
    cfg: RuleConfig,
) -> Tuple[bool, float]:
    """Evaluate the horizontal-motion band; returns (passed, product).

    The product is omega * x_norm * y_norm with x_norm in [-1, 1] and
    y_norm in [0, 1], so a fixed band admits larger drift rates for
    targets near the bottom of the frame.
    """
    if omega is None:
        return False, 0.0
    x_norm = max(-1.0, min(1.0, normalized_center(latest_cx, camera, cfg.c_los)))
    y_norm = max(0.0, min(1.0, (camera.frame_height - latest_by) / camera.frame_height))
    product = omega * x_norm * y_norm
    return cfg.alpha < product < cfg.beta, product


@dataclass(frozen=True)
class NearCrashDecision(Record):
    """One track-frame's rule inputs and outcome, as annotations and events record them."""

    triggered: bool
    size_rule_pass: bool
    motion_rule_pass: bool
    ttc_h: Optional[float]
    ttc_w: Optional[float]
    omega: Optional[float]
    motion_product: float


def event_type_for(kind: str) -> str:
    return "vehicle-pedestrian" if kind == "pedestrian" else "vehicle-vehicle"


class RuleEngine:
    """Applies both rules per track per frame with trigger debouncing."""

    def __init__(self, cfg: RuleConfig, camera: FrameGeometry):
        self.cfg = cfg
        self.camera = camera

    def decide(
        self,
        track,
        ttc: Optional[TtcEstimate],
        omega: Optional[float],
        now: float,
    ) -> NearCrashDecision:
        size_ok = check_size_rule(ttc, self.cfg)
        latest = track.window[-1]
        motion_ok, product = check_motion_rule(omega, latest.cx, latest.by, self.camera, self.cfg)
        last = track.last_trigger
        triggered = size_ok and motion_ok and (last is None or now - last >= self.cfg.cooldown)
        if triggered:
            track.last_trigger = now
        return NearCrashDecision(
            triggered=triggered,
            size_rule_pass=size_ok,
            motion_rule_pass=motion_ok,
            ttc_h=ttc.ttc_h if ttc else None,
            ttc_w=ttc.ttc_w if ttc else None,
            omega=omega,
            motion_product=product,
        )
