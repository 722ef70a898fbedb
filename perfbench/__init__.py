"""Repository benchmark: serving and training workloads (see README.md)."""
