"""Repository benchmark: four service workloads, traced per-layer spans and
correctness checks against independent references (see README.md)."""
