"""The report rows of the 16 shipped scenarios, as the contract every change keeps.

Taken from the `meta.json` files that `pinnet reproduce <family>` wrote for
each of the seven families (pinnet 0.1.0, numpy 2.4.6, OpenBLAS 0.3.31). A
change keeps CF exact, the pinned count, `lambda_1(A~)` and `sigma*` within
`TOL`, the outcome, and the sync time on the record grid.
"""

TOL = 1e-9

# name: (cf, pinned, lambda_max, sigma_star, sync_time, outcome)
SHIPPED_ROWS = {
    "fig2a": (3000.0, 1, -0.973943579599491, -6.058734856718104, 1.8585, "synchronized"),
    "fig2b": (120.0, 8, -1.3050665404851256, -6.058734856718104, 0.9570000000000001, "synchronized"),
    "fig3a": (3500.0, 1, -0.984221398351616, -6.058734856718104, 8.07, "synchronized"),
    "fig3b": (84.0, 8, -1.3050665404851256, -6.058734856718104, 1.5590000000000002, "synchronized"),
    "fig5a": (9000.0, 3, -0.9868849452084345, -6.058734856718104, 1.874, "synchronized"),
    "fig5b": (225.0, 9, -1.4673095821378563, -6.058734856718104, 0.911, "synchronized"),
    "fig6a": (0.0, 0, 7.216449728851567e-16, -6.058734856718104, None, "not-synchronized"),
    "fig6b": (0.0, 0, 7.216449728851567e-16, -6.058734856718104, None, "not-synchronized"),
    "fig6c": (9000.0, 3, -1.3345754874390876, -6.058734856718104, 2.665, "synchronized"),
    "fig6d": (18000.0, 3, -1.3404566227010766, -6.058734856718104, 2.5300000000000002, "synchronized"),
    "fig7": (330.0, 11, -1.493718829459748, -6.058734856718104, 1.8775, "synchronized"),
    "fig8a": (12000.0, 3, -1.3345754874390876, -6.058734856718104, 1.37, "synchronized"),
    "fig8b": (528.0, 11, -1.7261158573997555, -6.058734856718104, 1.4000000000000001, "synchronized"),
    "fig9a": (660.0, 2, -0.9600636937346153, -6.058734856718104, None, "not-synchronized"),
    "fig9b": (660.0, 5, -1.1436304694059127, -6.058734856718104, 6.995, "synchronized"),
    "fig9c": (660.0, 11, -1.8057813328301309, -6.058734856718104, 0.965, "synchronized"),
}
