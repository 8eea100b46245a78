"""Empty: every steady residual is in ``traveling``.

``benchmarks/tracing.py`` still imports this module by name.
"""
