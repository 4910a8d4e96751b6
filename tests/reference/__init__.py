"""Naive reference implementations the test suite compares the serving path with."""
