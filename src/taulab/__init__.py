"""Exact desk-scale toolkit for eigenform coefficients at prime powers.

Modules:

* ``rings``      -- Z and Z/mZ, matrices, symmetric powers and their laws
* ``cyclotomic`` -- the trace polynomial families, evaluation, discriminants
* ``hecke``      -- tau series, prime-power coefficients, table ingestion
* ``density``    -- trace-zero densities over GL2 of finite rings, Chebotarev scans
* ``factor``     -- factorization and primality plumbing
* ``scans``      -- largest-prime-factor scans, Sato-Tate value histograms
* ``forked``     -- ``forked_map``: the scan's split stage, one forked worker per CPU
* ``errors``     -- the exception types the CLI maps onto exit codes
* ``identities`` -- each promised identity written once: the checks behind ``taulab verify``,
                    ``taulab tower`` and the test suite
* ``cli``        -- every operation as a subcommand
"""

__version__ = "0.1.0"
