"""The strategy-deck layer (repro.parallel.strategy).

Unit coverage for the variant catalog, strategy resolution, the
largest-remainder slot allocator, deck construction — and the
``rmrls strategies`` / ``rmrls synth --direction`` CLI surface, plus
the callers of :func:`repro.synth.bidirectional.synthesize_inverse`.
The deck layer is pure data and arithmetic, so every assertion here is
exact: same inputs, same deck, same bytes.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.circuits.circuit import Circuit
from repro.cli import main
from repro.io.real_format import load_real
from repro.parallel import (
    BUILTIN_VARIANTS,
    DECKS,
    allocate_slots,
    build_deck,
    resolve_strategies,
    synthesize_portfolio,
    variant,
)
from repro.parallel.strategy import StrategyVariant
from repro.synth import synthesize, synthesize_bidirectional
from repro.synth.options import SynthesisOptions

from conftest import random_spec


class TestStrategyVariant:
    def test_paper_baseline_is_identity(self):
        options = SynthesisOptions()
        paper = resolve_strategies("paper")[0]
        assert paper.apply(options) is options
        assert paper.as_dict() == {
            "name": "paper", "direction": "forward", "deltas": {},
        }

    def test_deltas_apply_over_options(self):
        greedy = resolve_strategies("greedy")[0]
        options = greedy.apply(SynthesisOptions())
        assert options.greedy_k == 1
        assert options.restart_steps == 10_000

    def test_deltas_are_sorted_and_validated(self):
        entry = variant("x", restart_steps=5, alpha=0.2)
        assert entry.deltas == (("alpha", 0.2), ("restart_steps", 5))
        with pytest.raises(ValueError, match="tunable"):
            variant("bad", max_steps=10)
        with pytest.raises(ValueError, match="direction"):
            variant("bad", direction="sideways")
        with pytest.raises(ValueError, match="name"):
            StrategyVariant(name="")

    def test_catalog_is_deterministic(self):
        names = [entry.name for entry in BUILTIN_VARIANTS]
        assert names == [
            "paper", "greedy", "wide", "deepen", "eliminate",
            "inverse", "inverse-greedy",
        ]
        assert DECKS["default"] == ("paper", "greedy", "inverse", "eliminate")
        assert DECKS["full"] == tuple(names)


class TestResolveStrategies:
    def test_none_and_empty_mean_homogeneous(self):
        assert resolve_strategies(None) == ()
        assert resolve_strategies("") == ()
        assert resolve_strategies("  ") == ()

    def test_deck_name(self):
        deck = resolve_strategies("default")
        assert [entry.name for entry in deck] == list(DECKS["default"])

    def test_comma_string_and_iterable(self):
        by_string = resolve_strategies("paper, greedy")
        by_list = resolve_strategies(["paper", "greedy"])
        assert by_string == by_list
        custom = variant("mine", alpha=0.5)
        mixed = resolve_strategies(["paper", custom])
        assert mixed[1] is custom

    def test_single_variant_passthrough(self):
        custom = variant("mine")
        assert resolve_strategies(custom) == (custom,)

    def test_unknown_name_lists_catalog(self):
        with pytest.raises(ValueError, match="paper"):
            resolve_strategies("nope")

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            resolve_strategies("paper,paper")


class TestAllocateSlots:
    def test_equal_weights_round_robin(self):
        assert allocate_slots(4, 4) == [0, 1, 2, 3]
        assert allocate_slots(2, 5) == [0, 0, 0, 1, 1]

    def test_fewer_jobs_than_variants(self):
        assert allocate_slots(4, 2) == [0, 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            allocate_slots(0, 2)
        with pytest.raises(ValueError):
            allocate_slots(2, 0)


class TestBuildDeck:
    def test_default_deck_partitions_both_directions(self):
        deck = build_deck(
            resolve_strategies("default"), jobs=4,
            forward_seed_count=6, inverse_seed_count=5,
        )
        assert deck.variant_names == (
            "paper", "greedy", "inverse", "eliminate"
        )
        by_name = {slot.variant.name: slot for slot in deck.slots}
        # Three forward slots split six seeds round-robin; the inverse
        # slot owns the whole inverse pool.
        assert by_name["paper"].seed_ranks == (0, 3)
        assert by_name["greedy"].seed_ranks == (1, 4)
        assert by_name["eliminate"].seed_ranks == (2, 5)
        assert by_name["inverse"].seed_ranks == (0, 1, 2, 3, 4)
        forward_ranks = sorted(
            rank
            for slot in deck.slots
            if slot.variant.direction == "forward"
            for rank in slot.seed_ranks
        )
        assert forward_ranks == list(range(6))

    def test_empty_slices_are_dropped_and_reindexed(self):
        deck = build_deck(
            resolve_strategies("paper"), jobs=4, forward_seed_count=2
        )
        assert len(deck.slots) == 2
        assert [slot.slot for slot in deck.slots] == [0, 1]
        assert all(slot.seed_ranks for slot in deck.slots)

    def test_inverse_without_pool_runs_unrestricted(self):
        deck = build_deck(
            resolve_strategies("paper,inverse"), jobs=2,
            forward_seed_count=4, inverse_seed_count=0,
        )
        by_name = {slot.variant.name: slot for slot in deck.slots}
        assert by_name["inverse"].seed_ranks is None
        assert by_name["paper"].seed_ranks == (0, 1, 2, 3)

    def test_decks_replay_identically(self):
        kwargs = dict(jobs=4, forward_seed_count=7, inverse_seed_count=7)
        first = build_deck(resolve_strategies("default"), **kwargs)
        second = build_deck(resolve_strategies("default"), **kwargs)
        assert first.as_dict() == second.as_dict()

    def test_validation(self):
        with pytest.raises(ValueError):
            build_deck((), jobs=2, forward_seed_count=3)
        with pytest.raises(ValueError):
            build_deck(
                resolve_strategies("paper"), jobs=2, forward_seed_count=0
            )


class TestStrategiesCli:
    def test_show_lists_catalog_and_decks(self, capsys):
        assert main(["strategies", "show"]) == 0
        out = capsys.readouterr().out
        for name in ("paper", "greedy", "inverse", "eliminate"):
            assert name in out
        assert "default" in out

    def test_show_json(self, capsys):
        assert main(["strategies", "show", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        names = [entry["name"] for entry in report["variants"]]
        assert names == [entry.name for entry in BUILTIN_VARIANTS]
        assert report["decks"]["default"] == list(DECKS["default"])

#: The deterministic regime (no cancellation, dedupe on, a step cap
#: 3-variable exhaustion never binds) — the CLI's defaults.
_INVERSE_OPTIONS = dict(dedupe_states=True, max_steps=100_000)


def _inverse_via_cli(spec, capsys):
    # `_cmd_synth` itself asserts the shipped (reversed) cascade
    # implements the *forward* spec, so exit code 0 already means the
    # inverse pipeline is sound end to end.
    code = main(
        ["synth", "--spec", ",".join(map(str, spec.images)),
         "--direction", "inverse", "--json"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["solved"]
    assert report["direction"] == "inverse"
    return report["gate_count"], [Circuit.parse(3, report["circuit"])]


def _inverse_via_deck(spec, capsys):
    # Two slots of the one inverse variant split the inverse seed pool.
    result = synthesize_portfolio(
        spec, jobs=2, inline=True, portfolio_strategies="inverse",
        **_INVERSE_OPTIONS,
    )
    shipped = [
        load_real(entry.circuit) for entry in result.portfolio.slices
        if entry.circuit
    ]
    assert all(
        entry.direction == "inverse" for entry in result.portfolio.slices
    )
    return result.gate_count, [result.circuit] + shipped


def _inverse_via_bidirectional(spec, capsys):
    result = synthesize_bidirectional(
        spec, always_try_inverse=True, **_INVERSE_OPTIONS
    )
    assert result.inverse is not None
    return result.inverse.gate_count, [result.inverse.circuit]


class TestSynthDirectionCli:
    @pytest.mark.parametrize(
        "run_inverse",
        [_inverse_via_cli, _inverse_via_deck, _inverse_via_bidirectional],
        ids=["cli", "deck", "bidirectional"],
    )
    def test_inverse_direction_solves_and_reports(self, run_inverse, capsys):
        # Every caller of synthesize_inverse ships a circuit for the
        # forward spec with the gate count of the inverse search.
        stream = random.Random(0x1A5E)
        for _ in range(3):
            spec = random_spec(stream, 3)
            expected = synthesize(spec.inverse(), **_INVERSE_OPTIONS)
            assert expected.solved
            gate_count, circuits = run_inverse(spec, capsys)
            assert gate_count == expected.gate_count
            for circuit in circuits:
                assert circuit.implements(spec)

    def test_direction_needs_permutation(self, capsys):
        # shift28 is tabulated only as a PPRM benchmark (no image
        # table), so direction flags must refuse it, like
        # --direction bidirectional does.
        code = main(
            ["synth", "--benchmark", "shift28",
             "--direction", "inverse", "--max-steps", "10"]
        )
        assert code == 2

    def test_unknown_strategy_fails_fast(self, capsys):
        code = main(
            ["synth", "--spec", "1,0,7,2,3,4,5,6",
             "--strategies", "nope"]
        )
        assert code == 2
        assert "unknown strategy" in capsys.readouterr().err
