/**
 * @file
 * perfbench: one run of one workload.
 *
 *   perfbench --workload mlp_net|llm_net|compress_store --seed N
 *             --seconds S --trace 0|1 --work-dir DIR
 *   perfbench --self-test --work-dir DIR
 *
 * A run sets the system up three times (setup_s is the median), computes
 * the references its checks use, then runs three phases: its own phase
 * for S seconds of closed loop, and the other two for a fixed number of
 * operations, so every run reports every end-to-end metric. With
 * --trace 1 it also records spans around each call into the library,
 * replays the run's inputs and observed shapes through each layer's
 * entry point, prints the per-layer table and writes the spans as JSON
 * to DIR. The last line of standard output is the result object.
 */
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "checks.hpp"
#include "engine/cache_topology.hpp"
#include "engine/session.hpp"
#include "replay.hpp"
#include "system.hpp"

namespace {

using namespace perfbench;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool selfTest = false;
    std::string workDir = ".";
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::runtime_error("missing value for " + k);
            return argv[++i];
        };
        if (k == "--workload")
            a.workload = next();
        else if (k == "--seed")
            a.seed = std::stoull(next());
        else if (k == "--seconds")
            a.seconds = std::stod(next());
        else if (k == "--trace")
            a.trace = next() == "1";
        else if (k == "--work-dir")
            a.workDir = next();
        else if (k == "--self-test")
            a.selfTest = true;
        else
            throw std::runtime_error("unknown argument " + k);
    }
    return a;
}

enum class Phase
{
    Mlp,
    Gen,
    Deploy
};

/** Which phase runs for --seconds; the others run these counts. */
struct PhasePlan
{
    Budget mlp, gen, deploy;
    Phase main;
};

PhasePlan
planFor(const std::string &workload, double seconds)
{
    // Fixed counts for the phases a workload does not centre on: long
    // enough (several seconds each) that a short burst of machine noise
    // does not set the run's figure, and well past the samples the
    // percentile rule asks of each tail (24576 requests for a p99; 384
    // streams for a TTFT p90 and 5760 gaps for an inter-token p99), and
    // one deployment round.
    const Budget mlpCount{0.0, 6144}, genCount{0.0, 96}, deployCount{0.0, 1};
    const Budget timed{seconds, 0};
    if (workload == "mlp_net")
        return {timed, genCount, deployCount, Phase::Mlp};
    if (workload == "llm_net")
        return {mlpCount, timed, deployCount, Phase::Gen};
    if (workload == "compress_store")
        return {mlpCount, genCount, timed, Phase::Deploy};
    throw std::runtime_error("unknown workload '" + workload +
                             "' (mlp_net, llm_net, compress_store)");
}

void
printEnvironment()
{
    std::cout << "env:";
    for (const char *k : {"BBS_THREADS", "BBS_SIMD", "BBS_TUNE_CACHE",
                          "BBS_TRACE_SAMPLE", "BBS_STORE_BUDGET"}) {
        const char *v = std::getenv(k);
        std::cout << ' ' << k << '=' << (v != nullptr ? v : "(unset)");
    }
    std::cout << '\n'
              << "runtime: " << bbs::engine::runtimeSummary() << '\n'
              << "cache: " << bbs::engine::cacheTopologySummary() << '\n';
}

int
run(const Args &args)
{
    const PhasePlan plan = planFor(args.workload, args.seconds);
    printEnvironment();
    const Inputs in = makeInputs(args.seed);
    SpanLog spans(args.trace);
    const std::uint64_t root = spans.open("run." + args.workload, 0, 0);

    // Set-up: models built (quantise, compress, pack, plan), servers
    // started. Three times; the last system is the one measured.
    std::vector<double> setupS;
    std::unique_ptr<System> sys;
    for (int i = 0; i < 3; ++i) {
        sys.reset();
        ScopedSpan s(spans, "setup", root);
        auto t0 = Clock::now();
        sys = std::make_unique<System>(args.seed);
        setupS.push_back(secondsBetween(t0, Clock::now()));
    }

    // References, outside set-up time.
    auto t0 = Clock::now();
    const Oracles oracle = computeOracles(*sys, in);
    std::string setupCheck;
    for (std::size_t m = 0; m < mlpShapes().size() && setupCheck.empty();
         ++m) {
        auto net = sys->mlp(m);
        setupCheck = checkPlansAgainstNaive(
            *net, layerActivations(*net, 8, args.seed + m));
        if (!setupCheck.empty())
            setupCheck = std::string(mlpShapes()[m].label) + ": " + setupCheck;
    }
    std::cout << "references: " << secondsBetween(t0, Clock::now())
              << " s\n";

    LiveCounters before = LiveCounters::read(*sys);
    MlpResult mlp;
    GenResult gen;
    DeployResult deploy;
    auto runPhase = [&](Phase p) {
        switch (p) {
        case Phase::Mlp: {
            ScopedSpan s(spans, "phase.mlp", root);
            mlp = runMlpPhase(*sys, in, oracle, plan.mlp, spans, s.id());
            break;
        }
        case Phase::Gen: {
            ScopedSpan s(spans, "phase.generate", root);
            gen = runGenPhase(*sys, in, oracle, plan.gen, spans, s.id());
            break;
        }
        case Phase::Deploy: {
            ScopedSpan s(spans, "phase.deploy", root);
            deploy = runDeployPhase(in, args.workDir, plan.deploy, spans,
                                    s.id());
            break;
        }
        }
    };
    runPhase(plan.main);
    for (Phase p : {Phase::Mlp, Phase::Gen, Phase::Deploy})
        if (p != plan.main)
            runPhase(p);
    LiveCounters after = LiveCounters::read(*sys);

    MetricSet e2e = endToEndMetrics(setupS, mlp, gen, deploy);
    std::cout << "phases: mlp " << mlp.attempted << " requests in "
              << mlp.elapsedS << " s, generate " << gen.streams
              << " streams in " << gen.elapsedS << " s, deploy "
              << deploy.steps.size() << " containers in " << deploy.rounds
              << " rounds\n";

    bool correct = true;
    for (const auto &[what, err] :
         {std::pair<const char *, const std::string &>{"setup", setupCheck},
          {"mlp", mlp.mismatch},
          {"generate", gen.mismatch},
          {"deploy", deploy.mismatch}})
        if (!err.empty()) {
            std::cout << "CHECK FAILED (" << what << "): " << err << '\n';
            correct = false;
        }

    const std::uint64_t attempted =
        mlp.attempted + gen.streams + gen.failed + deploy.steps.size() +
        deploy.failed;
    const std::uint64_t failed = mlp.failed + gen.failed + deploy.failed;

    MetricSet out = e2e;
    if (args.trace) {
        printMetricTable("end-to-end (traced run)", e2e);
        ReplayContext ctx{*sys, in, args.workload, mlp, gen, deploy,
                          before, after};
        out = runReplays(ctx, spans, root);
        spans.close(root);
        if (!spans.parentsResolve())
            throw std::runtime_error("a span's parent is not in this run");
        const std::string path = args.workDir + "/spans_" + args.workload +
                                 "_" + std::to_string(args.seed) + ".json";
        std::ofstream f(path);
        spans.writeJson(f);
        if (!f)
            throw std::runtime_error("cannot write " + path);
        printLayerTable(spans);
        std::cout << "spans: " << spans.spans().size() << " written to "
                  << path << '\n';
    } else {
        printMetricTable("end-to-end", e2e);
    }
    sys.reset();
    printResultLine(std::cout, correct, attempted, failed, out);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Args args = parseArgs(argc, argv);
        std::filesystem::create_directories(args.workDir);
        if (args.selfTest) {
            int failures = runSelfTests(args.workDir);
            std::cout << (failures == 0 ? "self-test: all passed"
                                        : "self-test: FAILED")
                      << '\n';
            return failures == 0 ? 0 : 1;
        }
        return run(args);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 2;
    }
}
