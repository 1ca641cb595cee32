"""Benchmark workloads: a synthetic-data spec plus a run configuration each.

Every workload uses the paper's model and mining defaults (k=1, walk length
4, 500 walks, batch 8092, d=64, 2 layers, alpha 0.1, edge dropout 0.3) with a
fixed epoch count and early stopping off, so a run does the same amount of
work on every commit. The shapes are chosen so that each workload stresses a
different layer; README.md gives the reasons and the layer map.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict  # SynthSpec keys; `seed` is added per run
    variant: str
    epochs: int
    align: bool  # whether the pipeline runs `edda align` and trains on its pairs

    def spec_text(self, seed: int) -> str:
        lines = [f"{key} = {value}" for key, value in self.synth.items()]
        lines.append(f"seed = {seed}")
        return "\n".join(lines) + "\n"

    def config_text(self, seed: int) -> str:
        values = {
            "seed": seed,
            "eval_seed": seed,
            "variant": self.variant,
            "epochs": self.epochs,
            "patience": -1,
            "k": 1,
            "walk_length": 4,
            "num_walks": 500,
            "batch_size": 8092,
            "d_inter": 64,
            "d_intra": 64,
            "num_layers": 2,
            "alpha": 0.1,
            "edge_dropout": 0.3,
        }
        return "".join(f"{key} = {value}\n" for key, value in values.items())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="align_heavy",
            synth={
                "num_domains": 3,
                "users_per_domain": 300,
                "items_per_domain": 150,
                "interactions_per_domain": 3000,
                "overlap_fraction": 0.25,
            },
            variant="edda",
            epochs=1,
            align=True,
        ),
        Workload(
            name="train_dense",
            synth={
                "num_domains": 2,
                "users_per_domain": 600,
                "items_per_domain": 300,
                "interactions_per_domain": 22500,
                "overlap_fraction": 0.05,
            },
            variant="edda",
            epochs=6,
            align=True,
        ),
        Workload(
            name="train_sparse",
            synth={
                "num_domains": 3,
                "users_per_domain": 1000,
                "items_per_domain": 500,
                "interactions_per_domain": 4700,
                "overlap_fraction": 0.1,
            },
            variant="wo-da",
            epochs=12,
            align=False,
        ),
    )
}
