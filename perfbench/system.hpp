/**
 * @file
 * The served system every workload drives, its seeded inputs, the
 * references the checks compare against, and the three phases a run is
 * made of: MLP requests over TCP, streamed generation over TCP, and
 * compress-to-store deployment.
 */
#ifndef PERFBENCH_SYSTEM_HPP
#define PERFBENCH_SYSTEM_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "llm/transformer.hpp"
#include "net/net_server.hpp"
#include "nn/int8_infer.hpp"
#include "serve/generation.hpp"
#include "serve/server.hpp"

namespace perfbench {

/** The paper's group-32 operating point. */
inline constexpr std::int64_t kGroupSize = 32;
/** Pruned columns of the served MLPs and the deployed zoo layers. */
inline constexpr int kTargetColumns = 4;

// Closed-loop client shape: 4 connections, one per core of the 4-core
// reference machine.
inline constexpr int kConnections = 4;
inline constexpr int kMlpWindow = 8;      ///< pipelined Requests per connection
inline constexpr int kStreamsPerConn = 4; ///< tag-multiplexed streams
inline constexpr std::uint32_t kGenBudget = 16; ///< new tokens per stream

/** A served MLP: `label` names it in metrics. */
struct MlpShape
{
    const char *label;
    std::int64_t in, hidden, out;
    bool gelu;
};

/** cls: planes fit in L2; ffn: BERT-base FFN, planes far exceed it. */
const std::vector<MlpShape> &mlpShapes();

/** The served transformer (resident planes exceed L2). */
bbs::llm::TransformerConfig lmConfig(std::uint64_t seed);

/** One zoo-shaped layer deployed by the compress_store phase. */
struct ZooLayer
{
    std::string name;
    std::int64_t rows, cols;
};
const std::vector<ZooLayer> &zooLayers();

/** Everything a run sends, generated from --seed. */
struct Inputs
{
    std::vector<std::vector<std::vector<float>>> mlp; ///< [model][i]
    std::vector<std::vector<std::int32_t>> prompts;
    std::uint64_t seed = 0;
};
Inputs makeInputs(std::uint64_t seed);

/** The served stack: two MLPs behind a sharded InferenceServer and a
 *  transformer behind a GenerationScheduler, one NetServer in front. */
class System
{
  public:
    explicit System(std::uint64_t seed);
    ~System();
    System(const System &) = delete;
    System &operator=(const System &) = delete;

    std::uint16_t port() const { return net->port(); }
    std::shared_ptr<const bbs::Int8Network> mlp(std::size_t i) const;

    std::shared_ptr<bbs::ModelRegistry> registry;
    std::vector<std::string> servedNames; ///< per mlpShapes() entry
    std::unique_ptr<bbs::InferenceServer> server;
    std::unique_ptr<bbs::llm::TransformerModel> lm;
    std::unique_ptr<bbs::serve::GenerationScheduler> gen;
    std::unique_ptr<bbs::net::NetServer> net;
};

/** Batch-1 logits per MLP input and generateReference per prompt. */
struct Oracles
{
    std::vector<std::vector<std::vector<float>>> logits; ///< [model][i]
    std::vector<std::vector<std::int32_t>> tokens;       ///< [prompt]
};
Oracles computeOracles(const System &sys, const Inputs &in);

/** Run length: `seconds` of closed loop, or `count` operations per
 *  client (per connection; deployment rounds for the deploy phase). */
struct Budget
{
    double seconds = 0.0;
    std::int64_t count = 0;
};

struct MlpResult
{
    std::vector<double> latencyUs;
    std::uint64_t attempted = 0, failed = 0;
    double elapsedS = 0.0;
    std::string mismatch; ///< first wrong output, empty when all correct
};
MlpResult runMlpPhase(System &sys, const Inputs &in, const Oracles &oracle,
                      Budget budget, SpanLog &spans, std::uint64_t parent);

struct GenResult
{
    std::vector<double> ttftUs, itlUs;
    std::uint64_t streams = 0, tokens = 0, failed = 0;
    double elapsedS = 0.0;
    std::int64_t kvPeakBytes = 0;
    std::string mismatch;
};
GenResult runGenPhase(System &sys, const Inputs &in, const Oracles &oracle,
                      Budget budget, SpanLog &spans, std::uint64_t parent);

struct DeployStep
{
    std::int64_t weights = 0;
    std::size_t containerBytes = 0;
    double compressS = 0, writeS = 0, openS = 0, verifyS = 0, mapS = 0,
           firstForwardS = 0;
};
struct DeployResult
{
    std::vector<DeployStep> steps;
    std::uint64_t failed = 0;
    std::int64_t rounds = 0;
    double storedBitsMean = 0.0;
    std::string mismatch;
};
DeployResult runDeployPhase(const Inputs &in, const std::string &workDir,
                            Budget budget, SpanLog &spans,
                            std::uint64_t parent);

} // namespace perfbench

#endif // PERFBENCH_SYSTEM_HPP
