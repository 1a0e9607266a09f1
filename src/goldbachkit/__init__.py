"""goldbachkit: desk-scale numerics for weighted Goldbach representations.

Core objects: sieved von Mangoldt tables, Goldbach convolution tables
G_k(n) with direct and FFT construction routes, prefix averages S_k(X),
zeta-zero tables with the oscillatory term H_k(X) and explicit-formula
checks, circle-method diagnostics on |z| = 1 - 1/N, exact combinatorial
identity verification, and the primorial lower-bound construction.
"""

from .accum import BoundExceeded, exact_sum, max_discrepancy
from .circle import (
    ArcClassification,
    CircleGrid,
    Lemma1Result,
    PartialSeries,
    arc_classify,
    arc_sweep,
    cauchy_psi_recovery,
    expected_value_E,
    f_partial,
    gy_lemma_diagnostic,
    kernel_K,
    lemma1_check,
    minor_arc_l2,
    s0_sum,
)
from .goldbach import (
    DIRECT_ORACLE_CAP,
    GoldbachTable,
    PrefixSums,
    SingularSeriesQuery,
    bk_decomposition_check,
    bk_truncated,
    fz_powerseries_identity,
    gk_direct,
    gk_fft,
    singular_series,
    sk_prefix,
)
from .identities import (
    alternating_sums,
    derivative_alternating_sum,
    f_ki,
    run_identity_suite,
    solve_ak,
    verify_fki_recurrence,
)
from .mangoldt import (
    MangoldtTable,
    Primorial,
    build_mangoldt,
    chebyshev_psi,
    distinct_prime_factors,
    primes_up_to,
    primorial,
    psi_integral_check,
    psi_progression,
    riesz_psi_j,
)
from .omega import (
    ChainReport,
    MaxGkScan,
    chain_check,
    default_cutoff,
    max_gk_scan,
    mertens_ratio,
    progression_bound_check,
)
from .zeros import (
    ResidualReport,
    ResidualRow,
    ZeroFormatError,
    ZeroTable,
    bundled_zeros,
    granville_rk,
    hk_zero_sum,
    load_zeros,
    psi1_explicit,
    psij_explicit,
    residual_report,
    rk_hk_consistency,
    write_residual_csv,
)
from .zeta import bracket_zero, hardy_theta, hardy_z, zeta_euler_maclaurin

__version__ = "0.1.0"
