"""Diagnostic: signed PKS error and dispersion versus k for workloads."""

import sys

import numpy as np

from repro.baselines import PCA
from repro.baselines.kmeans import BisectingKMeans
from repro.evaluation.context import build_context
from repro.evaluation.imputation import cycles_in_table_order

for label in sys.argv[1:]:
    ctx = build_context(label)
    table = ctx.pks_table
    proj = PCA(0.9).fit(table.metrics).transform(table.metrics)
    cyc = cycles_in_table_order(table, ctx.golden)
    total = cyc.sum()
    errs = []
    clusterings = BisectingKMeans(20, seed_label=f"pks/{label}").fit_all(proj)
    for k in sorted(clusterings):
        if k < 2:
            continue
        km = clusterings[k]
        pred = sum(
            len(rows) * cyc[rows[0]]
            for rows in (np.flatnonzero(km.labels == c) for c in range(km.k))
            if len(rows)
        )
        errs.append((pred - total) / total * 100)
    print(
        "%-22s d=%d minabs=%5.1f%%: %s"
        % (label, proj.shape[1], min(abs(e) for e in errs),
           " ".join("%+.0f" % e for e in errs))
    )
