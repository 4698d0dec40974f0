#pragma once
/// \file paper_data.hpp
/// Values digitized from the paper's evaluation figures (§V).  The plots
/// are small and unlabeled beyond axis ticks, so these are approximate
/// eyeball readings; the reproduction target is the *shape* (monotone
/// trends, magnitudes, who wins) rather than exact coordinates.

#include <array>

namespace ldke::analysis {

/// The density sweep used throughout §V (mean neighbors per node).
inline constexpr std::array<double, 6> kPaperDensities = {8.0,  10.0, 12.5,
                                                          15.0, 17.5, 20.0};

/// Figure 6 — average number of cluster keys per node ("very small and
/// increases with low rate").
inline constexpr std::array<double, 6> kPaperFig6KeysPerNode = {
    2.9, 3.2, 3.6, 3.9, 4.2, 4.4};

/// Figure 7 — average number of nodes per cluster.
inline constexpr std::array<double, 6> kPaperFig7ClusterSize = {
    3.5, 4.5, 5.6, 6.8, 8.0, 9.3};

/// Figure 8 — cluster heads as a fraction of all nodes (decreasing).
inline constexpr std::array<double, 6> kPaperFig8HeadFraction = {
    0.22, 0.18, 0.15, 0.13, 0.11, 0.10};

/// Figure 9 — messages per node for the whole key setup, N = 2000
/// (election HELLOs plus one link advert each).
inline constexpr std::array<double, 6> kPaperFig9MessagesPerNode = {
    1.21, 1.17, 1.14, 1.11, 1.09, 1.07};

/// Figure 1 — distribution of cluster sizes (fraction of clusters with k
/// members) at densities 8 and 20.  Index 0 is unused (no empty
/// clusters); the paper's bars span sizes 1..8+.
inline constexpr std::array<double, 9> kPaperFig1Density8 = {
    0.0, 0.23, 0.20, 0.17, 0.13, 0.10, 0.07, 0.05, 0.03};
inline constexpr std::array<double, 9> kPaperFig1Density20 = {
    0.0, 0.08, 0.10, 0.12, 0.13, 0.12, 0.11, 0.09, 0.08};

/// §V node-count scalability claim: "our protocol behaves the same way
/// in a network with 2000 or 20000 nodes".  The 50k/100k points extend
/// the claim well past the paper's largest deployment: the localized
/// protocol's per-node figures should stay flat however far N grows.
inline constexpr std::array<std::size_t, 5> kPaperScaleSizes = {
    2000, 8000, 20000, 50000, 100000};

/// The size axis of bench_setup_scale's sizes × lanes grid: three orders
/// of magnitude past the paper's largest deployment.  The 1M point is the
/// sharded kernel's headline target (single-digit-seconds setup on all
/// cores); kept separate from kPaperScaleSizes so the trial-level sweeps
/// keep their runtime budget.
inline constexpr std::array<std::size_t, 6> kScaleSweepSizes = {
    2000, 8000, 20000, 50000, 100000, 1000000};

}  // namespace ldke::analysis
