"""Heterogeneous portfolio integration (strategy decks end to end).

The differential soundness contract for deck runs: every solved
slice's shipped circuit — inverse-direction slots included — must
simulation-verify against the *forward* spec, the deterministic
winner must carry variant provenance, and on 3-variable specs in the
deterministic regime the deck never regresses the gate count the
serial search finds.  Inline fleets (the daemonic-context fallback)
are the fast path here; one pooled test pins process-fleet parity.
"""

from __future__ import annotations

import json
import random

from repro.io.real_format import dump_real, load_real
from repro.parallel import synthesize_portfolio
from repro.synth import synthesize

from conftest import random_spec

#: The deterministic differential regime (see test_portfolio.py): no
#: cancellation, dedupe on, a step cap 3-variable exhaustion never
#: binds.
_DIFF = dict(dedupe_states=True, max_steps=200_000)


def _deck_run(spec, strategies="default", jobs=4):
    return synthesize_portfolio(
        spec, jobs=jobs, inline=True, portfolio_strategies=strategies,
        **_DIFF,
    )


class TestDeckSoundness:
    def test_default_deck_races_four_distinct_variants(self, fig1_spec):
        result = _deck_run(fig1_spec)
        assert result.solved
        summary = result.portfolio
        assert summary.strategies == (
            "paper", "greedy", "inverse", "eliminate"
        )
        raced = {entry.variant for entry in summary.slices}
        assert len(raced) >= 4
        assert summary.winner_variant in raced
        directions = {entry.direction for entry in summary.slices}
        assert directions == {"forward", "inverse"}

    def test_every_solved_slice_verifies_forward(self, fig1_spec):
        # Inverse slots search f⁻¹ but ship the reversed cascade, so
        # every shipped circuit — regardless of slot direction — must
        # implement the forward spec.
        result = _deck_run(fig1_spec, strategies="full", jobs=8)
        solved = [
            entry for entry in result.portfolio.slices
            if entry.status == "ok" and entry.circuit
        ]
        assert solved
        assert any(entry.direction == "inverse" for entry in solved)
        for entry in solved:
            assert load_real(entry.circuit).implements(fig1_spec), (
                f"slice {entry.slice_index} ({entry.variant}, "
                f"{entry.direction}) shipped a wrong circuit"
            )

    def test_winner_metadata_is_consistent(self, fig1_spec):
        result = _deck_run(fig1_spec)
        summary = result.portfolio
        winner = [
            entry for entry in summary.slices
            if entry.slice_index == summary.winner_slice
        ]
        assert len(winner) == 1
        assert winner[0].variant == summary.winner_variant
        assert winner[0].gate_count == result.gate_count
        rollup = summary.variant_rollup()
        assert rollup[summary.winner_variant]["best_gate_count"] == (
            result.gate_count
        )

    def test_deck_never_regresses_serial_gates_3var(self):
        # In the deterministic regime the serial search exhausts and
        # finds the optimum, so "never regress" means gate-count
        # equality.  The contract holds for decks of *complete*
        # variants: priority weights only reorder exploration, and the
        # forward slots jointly cover the whole seed pool.  Greedy-k
        # variants are excluded deliberately — their pruning trades
        # completeness (Sec. IV-E), so a deck that deals the optimal
        # seed to a greedy slot may ship a longer cascade; that is a
        # feature of the race, not a soundness bug (the soundness
        # tests above still verify whatever such a deck ships).
        stream = random.Random(0x5EED)
        for _ in range(4):
            spec = random_spec(stream, 3)
            serial = synthesize(spec, **_DIFF)
            deck = _deck_run(
                spec, strategies="paper,inverse,eliminate", jobs=3
            )
            assert deck.solved == serial.solved
            if serial.solved:
                assert deck.gate_count == serial.gate_count, (
                    f"deck found {deck.gate_count} gates, serial "
                    f"{serial.gate_count}, for {spec.images}"
                )
                assert deck.circuit.implements(spec)


class TestDeckDeterminism:
    def test_two_inline_runs_are_byte_identical(self, fig1_spec):
        first = _deck_run(fig1_spec)
        second = _deck_run(fig1_spec)
        assert dump_real(first.circuit) == dump_real(second.circuit)
        assert first.portfolio.winner_variant == (
            second.portfolio.winner_variant
        )
        assert first.portfolio.deck == second.portfolio.deck

        def scrub(summary):
            data = summary.as_dict()
            for entry in data["slices"]:
                entry.pop("elapsed_seconds")
            for row in data.get("variants", {}).values():
                row.pop("elapsed_seconds")
            return json.dumps(data, sort_keys=True)

        assert scrub(first.portfolio) == scrub(second.portfolio)

    def test_pooled_fleet_matches_inline(self, fig1_spec):
        inline = _deck_run(fig1_spec)
        pooled = synthesize_portfolio(
            fig1_spec, jobs=4, inline=False,
            portfolio_strategies="default", **_DIFF,
        )
        assert pooled.solved and inline.solved
        assert pooled.gate_count == inline.gate_count
        assert pooled.portfolio.winner_variant == (
            inline.portfolio.winner_variant
        )
        assert pooled.portfolio.deck == inline.portfolio.deck

