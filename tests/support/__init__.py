"""Test support: reference implementations and shared fixtures.

Importable as ``support.<module>`` through the ``pythonpath`` ini option in
``pyproject.toml``.  Nothing here ships with the library.
"""
