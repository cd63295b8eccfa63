/**
 * @file
 * Metrics of a run: the end-to-end set every run prints, and the
 * per-layer set of a traced run. The traced run reads the program's own
 * counters around the live phases and replays the run's inputs and
 * observed batch shapes through each layer's public entry point, one
 * benchmark-side span per call.
 */
#ifndef PERFBENCH_REPLAY_HPP
#define PERFBENCH_REPLAY_HPP

#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "harness.hpp"
#include "system.hpp"

namespace perfbench {

/** Snapshots of the server's and the process-wide metric registries. */
struct LiveCounters
{
    std::vector<bbs::obs::MetricSnapshot> server, global;
    static LiveCounters read(const System &sys);
};

MetricSet endToEndMetrics(const std::vector<double> &setupS,
                          const MlpResult &mlp, const GenResult &gen,
                          const DeployResult &deploy);

void printMetricTable(const char *title, const MetricSet &metrics);

/** Per span name: calls, median duration and mean self time. */
void printLayerTable(const SpanLog &spans);

struct ReplayContext
{
    System &sys;
    const Inputs &in;
    const std::string &workload;
    const MlpResult &mlp;
    const GenResult &gen;
    const DeployResult &deploy;
    const LiveCounters &before, &after;
};

/** The per-layer metric set (every name BENCHMARK.json lists). */
MetricSet runReplays(const ReplayContext &ctx, SpanLog &spans,
                     std::uint64_t root);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HPP
