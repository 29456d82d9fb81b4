"""Canonical cache keys modulo wire relabeling (repro.store.canonical).

The contract under test: two specifications share a key exactly when
one is a wire relabeling of the other, the recorded witness relabeling
replays a canonical-order circuit bit-exactly onto the caller's wire
order, and the key is derived from the PPRM outputs' bitset wire form,
pinned byte for byte so stores written earlier keep finding their keys.
"""

import itertools

import pytest

from repro.circuits.circuit import Circuit
from repro.functions.permutation import Permutation
from repro.gates.toffoli import ToffoliGate
from repro.parallel.portfolio import spec_from_payload
from repro.store import canonicalize, relabel_circuit
from repro.store.canonical import _key_material, bit_permutation
from repro.synth.options import SynthesisOptions
from repro.synth.rmrls import synthesize

QUICK = SynthesisOptions(dedupe_states=True, max_steps=40_000)


def conjugate(images, pi):
    """sigma_pi o P o sigma_pi^{-1} — the action of relabeling wires."""
    sigma = bit_permutation(pi)
    out = [0] * len(images)
    for x, image in enumerate(images):
        out[sigma[x]] = sigma[image]
    return out


def random_circuit(rng, num_lines=3, max_gates=6) -> Circuit:
    gates = []
    for _ in range(rng.randint(1, max_gates)):
        target = rng.randrange(num_lines)
        controls = rng.randrange(1 << num_lines) & ~(1 << target)
        gates.append(ToffoliGate(controls, target))
    return Circuit(num_lines, gates)


class TestKeyInvariance:
    def test_every_relabeling_shares_the_key(self, fig1_spec):
        base = canonicalize(fig1_spec)
        for pi in itertools.permutations(range(3)):
            spec = conjugate(fig1_spec.images, pi)
            other = canonicalize(spec)
            assert other.key == base.key
            assert other.images == base.images  # same representative

    def test_distinct_functions_get_distinct_keys(self, fig1_spec):
        identity = canonicalize(list(range(8)))
        assert canonicalize(fig1_spec).key != identity.key

    def test_key_is_relabeling_blind_not_function_blind(self, rng):
        seen = set()
        for _ in range(20):
            images = list(range(8))
            rng.shuffle(images)
            seen.add(canonicalize(images).key)
        assert len(seen) > 1

    def test_spec_forms_agree(self, fig1_spec):
        from_perm = canonicalize(fig1_spec)
        from_raw = canonicalize(list(fig1_spec.images))
        from_pprm = canonicalize(fig1_spec.to_pprm())
        assert from_perm.key == from_raw.key == from_pprm.key

    def test_circuit_spec_is_simulated_first(self, rng):
        circuit = random_circuit(rng)
        assert (
            canonicalize(circuit).key
            == canonicalize(circuit.to_permutation()).key
        )

    def test_key_stable_across_engines(self, fig1_spec):
        # A system rebuilt from the packed wire form keys like the
        # permutation it came from.
        system = spec_from_payload({"packed": [3, 52, 44], "num_vars": 3})
        assert canonicalize(system).key == canonicalize(fig1_spec).key

    def test_fig1_key_is_pinned(self, fig1_spec):
        # The on-disk form: stores written by earlier builds must keep
        # finding their keys, so the key material and its digest are
        # pinned byte for byte.
        canonical = canonicalize(fig1_spec)
        assert canonical.images == (1, 0, 5, 2, 7, 4, 3, 6)
        assert _key_material(canonical.images, 3) == (
            "rmrls-canonical-key:v1:n3:3,38,1c"
        )
        assert canonical.key == "c959dff6286f854472332b79c278f851"


class TestWitnessReplay:
    def test_round_trip_is_exact(self, rng):
        for _ in range(10):
            circuit = random_circuit(rng)
            canonical = canonicalize(circuit.to_permutation())
            stored = canonical.to_canonical(circuit)
            replayed = canonical.from_canonical(stored)
            assert replayed.gates == circuit.gates

    def test_canonical_form_implements_the_representative(self, rng):
        for _ in range(10):
            circuit = random_circuit(rng)
            canonical = canonicalize(circuit.to_permutation())
            stored = canonical.to_canonical(circuit)
            assert stored.implements(canonical.canonical_permutation())

    def test_synthesized_representative_replays_onto_caller(self, rng):
        # The cache-miss path: synthesize the canonical representative
        # once, replay it for a differently-labeled requester.
        images = list(range(8))
        rng.shuffle(images)
        canonical = canonicalize(images)
        result = synthesize(canonical.canonical_permutation().to_pprm(),
                            QUICK)
        assert result.circuit is not None
        replayed = canonical.from_canonical(result.circuit)
        assert replayed.implements(Permutation(images))

    def test_relabel_circuit_conjugates(self, rng):
        circuit = random_circuit(rng)
        for pi in itertools.permutations(range(3)):
            relabeled = relabel_circuit(circuit, pi)
            expected = conjugate(circuit.to_permutation().images, pi)
            assert list(relabeled.to_permutation().images) == expected

    def test_relabel_circuit_rejects_width_mismatch(self, rng):
        with pytest.raises(ValueError, match="lines"):
            relabel_circuit(random_circuit(rng), (0, 1))


class TestCapAndErrors:
    def test_above_cap_falls_back_to_identity(self, fig1_spec):
        capped = canonicalize(fig1_spec, relabel_max_vars=2)
        assert not capped.exhaustive
        assert capped.relabel == (0, 1, 2)
        assert capped.images == tuple(fig1_spec.images)

    def test_identity_fallback_is_sound_but_finer(self, fig1_spec):
        # Above the cap relabelings of the same function may key apart
        # (finer equivalence) but the same function never keys apart.
        capped = canonicalize(fig1_spec, relabel_max_vars=2)
        again = canonicalize(list(fig1_spec.images), relabel_max_vars=2)
        assert capped.key == again.key

    def test_environment_does_not_move_the_cap(
        self, fig1_spec, monkeypatch
    ):
        # Every process must mint the same key for the same spec, so no
        # RMRLS_* variable may change the relabeling cap.
        import os

        class EveryRmrlsVarIsTwo(dict):
            def __getitem__(self, key):
                if key.startswith("RMRLS_"):
                    return "2"
                return super().__getitem__(key)

            def get(self, key, default=None):
                return self[key] if key in self or key.startswith(
                    "RMRLS_"
                ) else default

        monkeypatch.setattr(os, "environ", EveryRmrlsVarIsTwo(os.environ))
        assert canonicalize(fig1_spec).exhaustive

    def test_as_dict_is_json_safe(self, fig1_spec):
        import json

        document = canonicalize(fig1_spec).as_dict()
        assert json.loads(json.dumps(document)) == document
