"""Substrates the paper depends on but that are not available here.

``numutils``  — numpy kernels replacing scipy (inverse normal CDF, KDE,
                Kendall tau-b, KS distance, uniformity statistic).
``cluster``   — agglomerative hierarchical clustering + dendrogram linkage,
                replacing scipy.cluster for the nullity dendrogram.
``sparkutils``— Spark DataFrame helpers: the SQL-text vocabulary the fused
                passes share (quoting, clean numeric, missing, equi-width
                bin), null-indicator frame.
"""
