/**
 * @file
 * Output checks of the three workloads. Each returns an empty string
 * when the output is correct and a description of the first mismatch
 * otherwise. The references are computed apart from the fast path: a
 * batch-1 forward, TransformerModel::generateReference, and a naive
 * int32 matmul over decompressed weights.
 */
#ifndef PERFBENCH_CHECKS_HPP
#define PERFBENCH_CHECKS_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/int8_infer.hpp"
#include "store/container.hpp"

namespace perfbench {

/** Logits must equal the batch-1 reference bit for bit. */
std::string checkLogits(const std::vector<float> &got,
                        const std::vector<float> &want);

/** A stream must deliver exactly @p budget tokens equal to @p want. */
std::string checkStream(const std::vector<std::int32_t> &got,
                        const std::vector<std::int32_t> &want,
                        std::size_t budget);

/** out[n][k] = sum_c a[n][c] * w[k][c], accumulated in int64. */
std::vector<std::int64_t> naiveMatmul(const bbs::Int8Tensor &w,
                                      const bbs::Int8Tensor &a);

/**
 * Every layer's plan product on @p acts (one activation batch per
 * layer, [rows, inFeatures]) equals the naive matmul over the layer's
 * CompressedRowPlanes::decompress().
 */
std::string checkPlansAgainstNaive(const bbs::Int8Network &net,
                                   const std::vector<bbs::Int8Tensor> &acts);

/** Every stored group keeps at most 8 - @p targetColumns bit planes. */
std::string checkStoredBits(const bbs::Int8Network &net, int targetColumns);

/** The mapped network's decompressed weights equal the in-memory ones. */
std::string checkSameWeights(const bbs::Int8Network &mapped,
                             const bbs::Int8Network &owned);

/**
 * The whole deployment check of one container: section checksums,
 * the stored-bits bound, mapped == in-memory weights, and plan
 * products == naive matmul.
 */
std::string checkDeployed(const bbs::store::MappedContainer &container,
                          const bbs::Int8Network &mapped,
                          const bbs::Int8Network &owned, int targetColumns,
                          const std::vector<bbs::Int8Tensor> &acts);

/** Random int8 activation batches, one per layer of @p net. */
std::vector<bbs::Int8Tensor> layerActivations(const bbs::Int8Network &net,
                                              std::int64_t rows,
                                              std::uint64_t seed);

/** Run the benchmark's self-tests; returns the number of failures. */
int runSelfTests(const std::string &workDir);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HPP
