"""Ablation A4 / §9.2 applications: end-to-end attacks on real victims.

Regenerates the paper's three application scenarios:

* **Montgomery ladder** — recover a private exponent bit-for-bit from
  the ladder's key-dependent branch;
* **libjpeg IDCT** — recover the per-row zero map (block sparsity) of a
  compressed image from the decoder's skip branches;
* **ASLR recovery** — locate a victim branch's congruence class in the
  PHT, derandomising log2(PHT)-log2(alignment) bits of the load base.
"""

import numpy as np

from conftest import emit, scaled
from repro.analysis import format_table
from repro.bpu import skylake
from repro.core.attack import BranchScope
from repro.core.aslr_attack import recover_load_base
from repro.cpu import PhysicalCore, Process
from repro.system import AslrConfig, AttackScheduler, NoiseSetting
from repro.victims import (
    JpegDecoderVictim,
    MontgomeryLadderVictim,
    encode_image,
)


def montgomery_attack():
    core = PhysicalCore(skylake(), seed=40)
    key = int.from_bytes(b"\x9e\x37\x79\xb9\x7f\x4a\x7c\x15", "big")
    victim = MontgomeryLadderVictim(key)
    attack = BranchScope(
        core, Process("spy"), victim.branch_address,
        setting=NoiseSetting.ISOLATED,
    )
    bits = attack.spy_on_bits(lambda: victim.step(core), victim.n_bits)
    recovered = 0
    for bit in bits:
        recovered = (recovered << 1) | int(bit)
    matching = sum(
        1
        for i in range(victim.n_bits)
        if (recovered >> i) & 1 == (key >> i) & 1
    )
    return victim.n_bits, matching, recovered == key


def jpeg_attack():
    core = PhysicalCore(skylake(), seed=41)
    rng = np.random.default_rng(42)
    y, x = np.mgrid[0:24, 0:32]
    image = encode_image(
        np.clip(
            110 + 70 * np.sin(x / 5.0) * np.cos(y / 7.0) + rng.normal(0, 4, (24, 32)),
            0,
            255,
        )
    )
    victim = JpegDecoderVictim(image)
    attack = BranchScope(
        core, Process("spy"), victim.row_branch_address,
        setting=NoiseSetting.ISOLATED,
    )
    recovered = []
    while not victim.finished:
        if victim.next_branch_address() == victim.row_branch_address:
            recovered.append(
                attack.spy_on_branch(lambda: victim.step(core)).taken
            )
        else:
            victim.step(core)
    truth = (~image.zero_row_map()).flatten().tolist()
    accuracy = sum(a == b for a, b in zip(recovered, truth)) / len(truth)
    return len(truth), accuracy


def aslr_attack():
    core = PhysicalCore(skylake(), seed=43)
    rng = np.random.default_rng(44)
    aslr = AslrConfig(entropy_bits=10, alignment=16)
    successes = 0
    trials = scaled(4)
    for _ in range(trials):
        victim = aslr.randomized_process("victim", rng, link_base=0)
        offset = 0x7C2
        address = victim.branch_address(offset)
        counter = {"n": 0}

        def trigger():
            counter["n"] += 1
            core.execute_branch(victim, address, counter["n"] % 3 != 0)

        scores = recover_load_base(
            core,
            Process("spy"),
            offset,
            trigger,
            [slot * aslr.alignment for slot in range(aslr.slots)],
            trials=8,
            scheduler=AttackScheduler(core, NoiseSetting.ISOLATED),
        )
        pht = core.predictor.bimodal.pht.n_entries
        if scores[0].candidate_address % pht == address % pht:
            successes += 1
    return trials, successes, aslr


def run_experiment():
    return montgomery_attack(), jpeg_attack(), aslr_attack()


def test_application_attacks(benchmark):
    montgomery, jpeg, aslr = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )
    key_bits, key_matching, key_exact = montgomery
    rows_total, row_accuracy = jpeg
    aslr_trials, aslr_successes, aslr_config = aslr

    pht_bits = 14  # log2(16384)
    align_bits = 4  # log2(16)
    emit(
        "apps_attacks",
        format_table(
            ["attack", "result"],
            [
                [
                    "Montgomery ladder key recovery",
                    f"{key_matching}/{key_bits} key bits correct "
                    f"({'exact key' if key_exact else 'not exact'})",
                ],
                [
                    "libjpeg IDCT zero-row map",
                    f"{row_accuracy:.1%} of {rows_total} row-skip "
                    "decisions recovered",
                ],
                [
                    "ASLR derandomisation",
                    f"{aslr_successes}/{aslr_trials} load bases located; "
                    f"{pht_bits - align_bits} bits of entropy recovered "
                    "per success",
                ],
            ],
            title="§9.2 application attacks (isolated-noise setting)",
        ),
    )

    assert key_matching / key_bits > 0.95
    assert row_accuracy > 0.9
    assert aslr_successes >= aslr_trials - 1
