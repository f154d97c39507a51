"""Survey plans: everything one multi-beam survey run is configured by.

A :class:`SurveyPlan` is a pure value: which scenario (or explicit
per-beam sources) to observe, on which benchmark column
(:data:`repro.scenarios.SCENARIO_SETUPS`), with how many beams, which
DM range, which seed, and how the beam-correlated realization and
cross-beam coincidence behave.  Its :meth:`identity` dict is what the
survey ledger pins resumability against: resuming with a different plan
is refused, not silently mixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.source import SignalSource
from repro.errors import ValidationError
from repro.scenarios.regression import ScenarioSetup, setup_by_key
from repro.sched.faults import FaultProfile
from repro.survey.coincidence import CoincidencePolicy
from repro.utils.validation import require_positive_int


@dataclass(frozen=True)
class SurveyPlan:
    """Configuration of one multi-beam survey run.

    ``scenario`` names a catalogue scenario whose source composition is
    decomposed into beam-correlated per-beam observations (signal into a
    localized neighbourhood around the centre beam, RFI identically into
    every beam, noise independent per beam).  Alternatively
    ``beam_sources`` supplies one explicit
    :class:`~repro.astro.source.SignalSource` per beam, realized
    independently — the escape hatch for hand-built observations.

    ``setup`` keys one column of
    :data:`~repro.scenarios.SCENARIO_SETUPS`; ``n_dms`` optionally
    overrides the column's trial count (same first/step), giving the
    benchmark its beams × n_dms scaling axis; it must be a multiple of
    the column configuration's ``tile_dms``.  ``signal_radius`` sizes
    the beam neighbourhood carrying the astrophysical signal (centre ±
    radius) and ``adjacent_attenuation`` the per-beam-step amplitude
    falloff inside it.  ``faults`` drives the fleet-dispatch stage's
    fault injection (crashes / stragglers / transients on the simulated
    accelerator fleet).
    """

    scenario: str = "giant_pulse_train"
    setup: str = "low"
    n_beams: int = 8
    n_dms: int | None = None
    seed: int = 0
    backend: str | None = None
    n_chunks: int | None = None
    signal_radius: int = 1
    adjacent_attenuation: float = 0.7
    beam_sources: tuple[SignalSource, ...] = ()
    coincidence: CoincidencePolicy = field(default_factory=CoincidencePolicy)
    faults: FaultProfile = field(default_factory=FaultProfile.none)
    fleet_units: int = 3

    def __post_init__(self) -> None:
        require_positive_int(self.n_beams, "n_beams")
        require_positive_int(self.fleet_units, "fleet_units")
        if self.signal_radius < 0:
            raise ValidationError("signal_radius must be non-negative")
        if not 0.0 < self.adjacent_attenuation <= 1.0:
            raise ValidationError(
                "adjacent_attenuation must be in (0, 1]"
            )
        if self.n_dms is not None:
            require_positive_int(self.n_dms, "n_dms")
            tile = setup_by_key(self.setup).config.tile_dms
            if self.n_dms % tile:
                raise ValidationError(
                    f"n_dms={self.n_dms} does not tile the {self.setup!r} "
                    f"column's kernel configuration: use a multiple of "
                    f"{tile} trial DMs"
                )
        if self.n_chunks is not None:
            require_positive_int(self.n_chunks, "n_chunks")
        object.__setattr__(
            self, "beam_sources", tuple(self.beam_sources)
        )
        if self.beam_sources and len(self.beam_sources) != self.n_beams:
            raise ValidationError(
                f"beam_sources supplies {len(self.beam_sources)} sources "
                f"for n_beams={self.n_beams}; one source per beam"
            )

    # ------------------------------------------------------------------
    def column(self) -> ScenarioSetup:
        """The benchmark column, with the DM-range override applied."""
        column = setup_by_key(self.setup)
        if self.n_dms is None or self.n_dms == column.grid.n_dms:
            return column
        grid = DMTrialGrid(
            n_dms=self.n_dms,
            first=column.grid.first,
            step=column.grid.step,
        )
        return replace(column, grid=grid)

    def signal_beams(self) -> tuple[int, ...]:
        """The beam neighbourhood carrying the astrophysical signal."""
        centre = self.n_beams // 2
        lo = max(0, centre - self.signal_radius)
        hi = min(self.n_beams - 1, centre + self.signal_radius)
        return tuple(range(lo, hi + 1))

    def identity(self) -> dict:
        """The resume-identity dict the survey ledger is keyed by."""
        column = self.column()
        return {
            "seed": int(self.seed),
            "scenario": self.scenario if not self.beam_sources else "",
            "setup": column.key,
            "n_beams": int(self.n_beams),
            "n_dms": int(column.grid.n_dms),
            "backend": self.backend or "auto",
            "signal_radius": int(self.signal_radius),
            "adjacent_attenuation": float(self.adjacent_attenuation),
            "explicit_sources": bool(self.beam_sources),
        }
