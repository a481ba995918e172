"""Workload generation: the paper's MINT/SPEND client methodology."""

from repro.workloads.coingen import (
    all_minter_addresses,
    client_address,
    deploy_clients,
    endless_mint,
    endless_spend_cycle,
    mint_ops,
    spend_ops,
)

__all__ = [
    "all_minter_addresses",
    "client_address",
    "deploy_clients",
    "endless_mint",
    "endless_spend_cycle",
    "mint_ops",
    "spend_ops",
]
