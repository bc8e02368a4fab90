"""Exact-arithmetic calculator for low-degree Donaldson/Seiberg-Witten
series identities, built on level-one monopole link pairings.

Everything is computed over arbitrary-precision rationals; every closed
formula ships with an independent brute-force oracle.
"""
