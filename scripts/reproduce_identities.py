#!/usr/bin/env python3
"""Print the reconstruction table and readout identities for every family.

Usage: python scripts/reproduce_identities.py [--seed N]
"""

import argparse

import numpy as np

from netwitness import bell, graphs
from netwitness.networks import (
    bh_network,
    choi_network,
    flip_network,
    network_from_decomposition,
    reconstruct_witness,
    reduction_network,
    smolin_network,
)
from netwitness.protocol import bell_overlap_raw
from netwitness.states import random_state
from netwitness.tensor import density
from netwitness.witnesses import decomposable_witness, flip_witness


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    q = random_state((3, 3), rng_seed=args.seed, rank=1)
    nets = [
        flip_network(2),
        flip_network(3),
        network_from_decomposition(decomposable_witness(q), 1 / 3),
        choi_network(),
        reduction_network(2),
        reduction_network(3),
        smolin_network(),
        bh_network(4),
        graphs.ghz_protocol(),
        graphs.cl4_protocol(),
    ]
    print(f"{'family':<14} {'d':>2} {'eta':>10} {'recon_const':>14} {'max_error':>12}")
    for net in nets:
        rec = reconstruct_witness(net)
        err = np.max(np.abs(rec.data - net.recon_constant * net.witness.data.T))
        print(f"{net.family:<14} {net.d:>2} {net.eta:>10.6f} "
              f"{net.recon_constant:>14.10f} {err:>12.3e}")

    print("\ntwo-qubit (flip, d = 2) readout identity residuals (20 random states):")
    net = flip_network(2)
    w = flip_witness(2)
    worst = 0.0
    for seed in range(20):
        rho = random_state((2, 2), rng_seed=seed)
        lhs = bell_overlap_raw(rho, net)
        worst = max(worst, abs(lhs - (1 / 8 - w.expectation(rho) / 4)))
    print(f"  worst |LHS - (1/8 - tr[rho W]/4)| = {worst:.3e}")
    psi = bell.bell_ket(2, 1, 1)
    rho = density(np.outer(psi, psi.conj()), (2, 2))
    print(f"  LHS for the singlet input        = {bell_overlap_raw(rho, net):.12f}")

    print("\nGHZ identity residuals (20 random states):")
    ghz = graphs.ghz_protocol()
    worst = 0.0
    for seed in range(20):
        rho = random_state((2, 2, 2), rng_seed=seed)
        wexp = np.real(np.trace(ghz.witness.data @ rho.data))
        worst = max(worst, abs(bell_overlap_raw(rho, ghz) - (1 / 16 - wexp / 8)))
    print(f"  worst |LHS - (1/16 - tr[rho W]/8)| = {worst:.3e}")


if __name__ == "__main__":
    main()
